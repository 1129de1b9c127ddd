// Package eval implements the paper's evaluation (§VI): scenario
// builders for every attack, the three systems under test (Kalis, the
// traditional-IDS baseline, and the Snort-like signature IDS), the
// runner that replays each scenario through each system, and the
// experiment drivers that regenerate Table II, Figure 8, and the
// reactivity, knowledge-sharing and countermeasure results.
package eval

import (
	"fmt"

	"kalis/internal/attack"
	"kalis/internal/core"
	"kalis/internal/core/module"
	"kalis/internal/metrics"
	"kalis/internal/packet"
	"kalis/internal/snortlike"
)

// IDS is a system under test.
type IDS interface {
	// Label names the system in reports.
	Label() string
	// HandleCapture feeds one overheard frame.
	HandleCapture(c *packet.Captured)
	// Attributions converts the system's alerts into scoreable form.
	Attributions() []metrics.Attribution
	// WorkUnits counts per-packet work performed (module invocations
	// or rule evaluations).
	WorkUnits() uint64
	// Close releases resources.
	Close()
}

// Factory builds a fresh IDS for one run.
type Factory func(seed int64) (IDS, error)

// --- Kalis and the traditional baseline ---

// kalisIDS adapts core.Kalis (in either mode) to the IDS interface.
type kalisIDS struct {
	label string
	node  *core.Kalis
}

var _ IDS = (*kalisIDS)(nil)

func (k *kalisIDS) Label() string                    { return k.label }
func (k *kalisIDS) HandleCapture(c *packet.Captured) { k.node.HandleCapture(c) }
func (k *kalisIDS) Close()                           { _ = k.node.Close() }

func (k *kalisIDS) WorkUnits() uint64 {
	_, invocations, _ := k.node.Stats()
	return invocations
}

func (k *kalisIDS) Attributions() []metrics.Attribution {
	alerts := k.node.Alerts()
	out := make([]metrics.Attribution, len(alerts))
	for i, a := range alerts {
		out[i] = metrics.Attribution{
			Time: a.Time, Attack: a.Attack, Victim: a.Victim,
			Suspects: a.Suspects, Confidence: a.Confidence,
		}
	}
	return out
}

// Node exposes the underlying Kalis node (for experiments that need
// the Knowledge Base or collective layer).
func (k *kalisIDS) Node() *core.Kalis { return k.node }

// NewKalis builds the knowledge-driven Kalis system with the full
// module library installed.
func NewKalis(nodeID string) Factory {
	return func(seed int64) (IDS, error) {
		node, err := core.New(core.Config{
			NodeID:          nodeID,
			KnowledgeDriven: true,
			WindowSize:      2048,
			InstallAll:      true,
		})
		if err != nil {
			return nil, err
		}
		return &kalisIDS{label: "Kalis", node: node}, nil
	}
}

// NewTraditional builds the traditional-IDS baseline: "our system
// without Knowledge Base, and with all the modules active at all
// times" (§VI-B). exclude removes modules from the static library —
// used for the replication experiment, where the baseline "randomly
// selects one of the two modules for each run" (§VI-B2): the caller
// excludes the variant the coin flip discarded.
func NewTraditional(exclude ...string) Factory {
	excluded := make(map[string]bool, len(exclude))
	for _, name := range exclude {
		excluded[name] = true
	}
	return func(seed int64) (IDS, error) {
		node, err := core.New(core.Config{
			NodeID:          "T1",
			KnowledgeDriven: false,
			WindowSize:      2048,
		})
		if err != nil {
			return nil, err
		}
		for _, name := range node.Registry().Names() {
			if excluded[name] {
				continue
			}
			if err := node.Install(name, nil); err != nil {
				return nil, fmt.Errorf("traditional: %w", err)
			}
		}
		return &kalisIDS{label: "Traditional IDS", node: node}, nil
	}
}

// --- Snort-like ---

// snortIDS adapts the snortlike engine.
type snortIDS struct {
	engine *snortlike.Engine
}

var _ IDS = (*snortIDS)(nil)

// NewSnort builds the Snort-like baseline with the custom scenario
// rules plus a community ruleset of the given size (0 selects the
// default of 3000 rules, the order of magnitude of the real community
// ruleset).
func NewSnort(communitySize int) Factory {
	if communitySize == 0 {
		communitySize = 3000
	}
	return func(seed int64) (IDS, error) {
		rules, err := snortlike.DefaultRuleset(communitySize)
		if err != nil {
			return nil, err
		}
		return &snortIDS{engine: snortlike.NewEngine(rules)}, nil
	}
}

func (s *snortIDS) Label() string                    { return "Snort" }
func (s *snortIDS) HandleCapture(c *packet.Captured) { s.engine.HandleCapture(c) }
func (s *snortIDS) WorkUnits() uint64                { return s.engine.Evaluations }
func (s *snortIDS) Close()                           {}

// sidAttack maps the scenario rules' SIDs to canonical attack names —
// Snort's classification is whatever the matching signature says.
var sidAttack = map[int]string{
	snortlike.SIDICMPFlood: attack.ICMPFlood,
	snortlike.SIDEchoSweep: attack.Smurf,
	snortlike.SIDSYNFlood:  attack.SYNFlood,
	snortlike.SIDSmurf:     attack.Smurf,
}

func (s *snortIDS) Attributions() []metrics.Attribution {
	alerts := s.engine.Alerts()
	out := make([]metrics.Attribution, len(alerts))
	for i, a := range alerts {
		name := sidAttack[a.SID]
		if name == "" {
			name = a.Class
		}
		out[i] = metrics.Attribution{
			Time:       a.Time,
			Attack:     name,
			Victim:     a.Dst,
			Suspects:   []packet.NodeID{a.Src},
			Confidence: 0.8,
		}
	}
	return out
}

// AlertSink lets experiments react to alerts as they happen (e.g. the
// countermeasure experiment's revocations). It is implemented by the
// Kalis-based systems.
type AlertSink interface {
	OnAlert(fn func(module.Alert))
}

// OnAlert implements AlertSink.
func (k *kalisIDS) OnAlert(fn func(module.Alert)) { k.node.OnAlert(fn) }
