package taxonomy

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kalis/internal/attack"
)

func TestByTargetMatchesPaperTable(t *testing.T) {
	m := ByTarget()
	cases := []struct {
		src, dst Entity
		want     PatternClass
	}{
		{EntityInternet, EntityInternetService, DenialOfService},
		{EntityInternet, EntityHub, RemoteDoT},
		{EntityInternet, EntitySub, PatternNone},
		{EntityHub, EntityHub, ControlDoT},
		{EntityHub, EntitySub, DenialOfThing},
		{EntityHub, EntityRouter, DenialOfRouting},
		{EntitySub, EntitySub, DenialOfThing},
		{EntitySub, EntityInternetService, PatternNone},
		{EntityRouter, EntityHub, ControlDoT},
		{EntityRouter, EntityRouter, DenialOfRouting},
	}
	for _, c := range cases {
		if got := m[c.src][c.dst]; got != c.want {
			t.Errorf("%s → %s = %q, want %q", c.src, c.dst, got, c.want)
		}
	}
}

func TestByFeatureKeyCells(t *testing.T) {
	m := ByFeature()
	// The cells the paper's text pins down explicitly.
	cases := []struct {
		f    Feature
		a    string
		want Relation
	}{
		{FeatureSinglehop, attack.Smurf, Impossible},               // §III-A1
		{FeatureSinglehop, attack.SelectiveForwarding, Impossible}, // §III
		{FeatureEncrypted, attack.DataAlteration, Impossible},      // §III-B2
		{FeatureStatic, attack.Replication, TechniqueDepends},      // §VI-B2
		{FeatureMobile, attack.Replication, TechniqueDepends},
		{FeatureMultihop, attack.Sinkhole, Possible},
	}
	for _, c := range cases {
		if got := m[c.f][c.a]; got != c.want {
			t.Errorf("%s × %s = %v, want %v", c.f, c.a, got, c.want)
		}
	}
}

func TestEveryAttackCovered(t *testing.T) {
	m := ByFeature()
	for _, a := range attack.All {
		found := false
		for _, row := range m {
			if _, ok := row[a]; ok {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("attack %s absent from the feature taxonomy", a)
		}
	}
}

func TestRelationSymbols(t *testing.T) {
	if Possible.Symbol() != "●" || Impossible.Symbol() != "✗" || TechniqueDepends.Symbol() != "◯" {
		t.Error("symbols")
	}
	if Relation(9).Symbol() != "?" {
		t.Error("unknown symbol")
	}
}

func TestWriters(t *testing.T) {
	var sb strings.Builder
	WriteTableI(&sb)
	out := sb.String()
	for _, want := range []string{"Denial of Service", "Remote Denial of Thing", "Denial of Routing"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	sb.Reset()
	WriteFigure3(&sb)
	out = sb.String()
	for _, want := range []string{"icmp-flood", "wormhole", "●", "✗", "◯"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 3 missing %q", want)
		}
	}
}

func TestEntityString(t *testing.T) {
	if EntityHub.String() != "Hub" || Entity(99).String() != "entity(99)" {
		t.Error("entity strings")
	}
}

var update = flag.Bool("update", false, "rewrite the printer goldens under testdata")

// TestWritersGolden pins the printers byte for byte, so that any edit
// of a Table I or Fig. 3 cell shows up in the diff of
// testdata/*.golden; -update rewrites them.
func TestWritersGolden(t *testing.T) {
	for _, c := range []struct {
		file  string
		write func(io.Writer)
	}{
		{"table1.golden", WriteTableI},
		{"figure3.golden", WriteFigure3},
	} {
		var sb strings.Builder
		c.write(&sb)
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sb.String() != string(want) {
			t.Errorf("%s differs from the printer's output:\n%s", path, sb.String())
		}
	}
}
