package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kalis/internal/core/detection"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
)

var updateActivation = flag.Bool("update", false, "rewrite testdata/activation.golden")

// activationMedia are the media a Knowledge Base state has seen: state
// i holds Mediums.<activationMedia[b]> for every set bit b of i%16.
var activationMedia = []packet.Medium{
	packet.MediumWiFi, packet.MediumWired, packet.MediumIEEE802154, packet.MediumBluetooth,
}

// activationQuestions are the boolean features a state answers, each
// absent, true, false or static true: digit q of i/16 (base 4).
var activationQuestions = []string{
	knowledge.LabelMultihop, knowledge.LabelMobility, knowledge.LabelEncrypted,
}

var activationAnswers = []string{"absent", "true", "false", "static"}

// activationStates is the number of Knowledge Base states tried.
var activationStates = 16 * 4 * 4 * 4

// activationBase builds Knowledge Base state i.
func activationBase(i int) *knowledge.Base {
	kb := knowledge.NewBase("K1")
	for b, m := range activationMedia {
		if i&(1<<b) != 0 {
			kb.Put(knowledge.LabelMediums+"."+m.String(), "true")
		}
	}
	rest := i / 16
	for _, label := range activationQuestions {
		switch activationAnswers[rest%4] {
		case "true":
			kb.PutBool(label, true)
		case "false":
			kb.PutBool(label, false)
		case "static":
			kb.PutStatic(label, "", "true")
		}
		rest /= 4
	}
	return kb
}

// describeActivationState names state i for a failure message.
func describeActivationState(i int) string {
	var media []string
	for b, m := range activationMedia {
		if i&(1<<b) != 0 {
			media = append(media, m.String())
		}
	}
	parts := []string{"Mediums={" + strings.Join(media, ",") + "}"}
	rest := i / 16
	for _, label := range activationQuestions {
		parts = append(parts, label+"="+activationAnswers[rest%4])
		rest /= 4
	}
	return fmt.Sprintf("state %d (%s)", i, strings.Join(parts, " "))
}

// TestFig3DecidesActivation pins, for every detector of an attack of
// the Fig. 3 taxonomy, whether it is required in each of 1 024
// Knowledge Base states: every subset of the four media, mixed homes
// included, times Multihop, Mobility and Encrypted each absent, true,
// false or static true. testdata/activation.golden holds one line per
// detector and one character per state ('+' required, '.' not);
// -update rewrites it. TrafficAnomaly and HealthCorr are not Fig. 3
// feature decisions and are left out.
func TestFig3DecidesActivation(t *testing.T) {
	reg := module.NewRegistry()
	detection.Register(reg)
	bases := make([]*knowledge.Base, activationStates)
	for i := range bases {
		bases[i] = activationBase(i)
	}

	var got []string
	for _, name := range reg.Names() {
		if name == detection.TrafficAnomalyName || name == detection.HealthCorrName {
			continue
		}
		mod, err := reg.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		var row strings.Builder
		for _, kb := range bases {
			if mod.Required(kb) {
				row.WriteByte('+')
			} else {
				row.WriteByte('.')
			}
		}
		got = append(got, name+" "+row.String())
	}

	path := filepath.Join("testdata", "activation.golden")
	if *updateActivation {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, row, _ := strings.Cut(line, " ")
		want[name] = row
	}
	if len(want) != len(got) {
		t.Errorf("the golden has %d detectors, the registry %d", len(want), len(got))
	}
	for _, line := range got {
		name, row, _ := strings.Cut(line, " ")
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden line", name)
			continue
		}
		if len(w) != len(row) {
			t.Errorf("%s: golden has %d states, want %d", name, len(w), len(row))
			continue
		}
		bad := 0
		for i := range row {
			if row[i] == w[i] {
				continue
			}
			if bad++; bad <= 5 {
				t.Errorf("%s in %s: required=%v, golden says %v", name, describeActivationState(i), row[i] == '+', w[i] == '+')
			}
		}
		if bad > 5 {
			t.Errorf("%s: %d states disagree in all", name, bad)
		}
	}
}
