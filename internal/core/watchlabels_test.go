package core

import (
	"testing"

	"kalis/internal/core/detection"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/core/sensing"
)

// labelStates lists the states one knowgget label is tried in; the
// first is always "absent".
var labelStates = []struct {
	label string
	alts  []func(*knowledge.Base)
}{
	{knowledge.LabelMediums, []func(*knowledge.Base){
		func(*knowledge.Base) {},
		func(kb *knowledge.Base) { kb.Put(knowledge.LabelMediums+".wifi", "true") },
		func(kb *knowledge.Base) { kb.Put(knowledge.LabelMediums+".wired", "true") },
		func(kb *knowledge.Base) { kb.Put(knowledge.LabelMediums+".ieee802.15.4", "true") },
	}},
	{knowledge.LabelMultihop, boolStates(knowledge.LabelMultihop)},
	{knowledge.LabelMobility, boolStates(knowledge.LabelMobility)},
	{knowledge.LabelEncrypted, boolStates(knowledge.LabelEncrypted)[:3]},
	{"AnomalyDetection", boolStates("AnomalyDetection")[:3]},
	{"Peers", []func(*knowledge.Base){
		func(*knowledge.Base) {},
		func(kb *knowledge.Base) { kb.PutInt("Peers", 0) },
		func(kb *knowledge.Base) { kb.PutInt("Peers", 2) },
	}},
	// Labels that modules consume through their own subscriptions: a
	// module listing one of these must show that it decides Required.
	{knowledge.LabelSuspectBlackhole, []func(*knowledge.Base){
		func(*knowledge.Base) {},
		func(kb *knowledge.Base) { kb.PutCollective(knowledge.LabelSuspectBlackhole, "0x0002", "3") },
	}},
	{knowledge.LabelEmergentSource, []func(*knowledge.Base){
		func(*knowledge.Base) {},
		func(kb *knowledge.Base) { kb.PutCollective(knowledge.LabelEmergentSource, "0x0009", "3") },
	}},
	{knowledge.LabelModuleHealth, []func(*knowledge.Base){
		func(*knowledge.Base) {},
		func(kb *knowledge.Base) { kb.Put(knowledge.LabelModuleHealth+".SybilModule", "quarantined") },
	}},
}

// boolStates: absent, true, false, and provided as static knowledge.
func boolStates(label string) []func(*knowledge.Base) {
	return []func(*knowledge.Base){
		func(*knowledge.Base) {},
		func(kb *knowledge.Base) { kb.PutBool(label, true) },
		func(kb *knowledge.Base) { kb.PutBool(label, false) },
		func(kb *knowledge.Base) { kb.PutStatic(label, "", "true") },
	}
}

// TestWatchLabelsDecideRequired checks WatchLabels against Required for
// every built-in module, over every combination of the label states
// above: a watched label must have a pair of Knowledge Base states that
// differ in it alone and on which Required differs (or each of its
// changes costs a re-evaluation that cannot change the outcome), and a
// label that makes such a difference must be watched (or the module
// would sleep through its own activation).
func TestWatchLabelsDecideRequired(t *testing.T) {
	reg := module.NewRegistry()
	sensing.Register(reg)
	detection.Register(reg)

	// Knowledge Base i holds each label in the state its digit of i
	// (mixed radix, first label least significant) selects.
	total := 1
	for _, ls := range labelStates {
		total *= len(ls.alts)
	}
	bases := make([]*knowledge.Base, total)
	for i := range bases {
		kb := knowledge.NewBase("K1")
		for d, rest := 0, i; d < len(labelStates); d++ {
			n := len(labelStates[d].alts)
			labelStates[d].alts[rest%n](kb)
			rest /= n
		}
		bases[i] = kb
	}

	for _, name := range reg.Names() {
		mod, err := reg.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		required := make([]bool, total)
		for i, kb := range bases {
			required[i] = mod.Required(kb)
		}
		watched := make(map[string]bool)
		for _, l := range mod.WatchLabels() {
			watched[l] = true
		}
		stride := 1
		for _, ls := range labelStates {
			n := len(ls.alts)
			decides := false
			for i := 0; i < total && !decides; i++ {
				if (i/stride)%n != 0 {
					continue // compare each absent-state base with its siblings
				}
				for k := 1; k < n; k++ {
					if required[i] != required[i+k*stride] {
						decides = true
					}
				}
			}
			switch {
			case watched[ls.label] && !decides:
				t.Errorf("%s watches %s, but no two Knowledge Base states differing only in it change Required", name, ls.label)
			case !watched[ls.label] && decides:
				t.Errorf("%s does not watch %s, though Required depends on it", name, ls.label)
			}
			delete(watched, ls.label)
			stride *= n
		}
		for l := range watched {
			t.Errorf("%s watches %s, a label this test has no states for", name, l)
		}
	}
}
