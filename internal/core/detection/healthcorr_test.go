package detection

import (
	"testing"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
)

// gossipHealth injects a peer node's ModuleHealth report as the gossip
// layer would deliver it.
func gossipHealth(t *testing.T, kb *knowledge.Base, creator, mod, state string, ver uint64) {
	t.Helper()
	ok := kb.AcceptGossip(creator, knowledge.Knowgget{
		Creator: creator,
		Label:   knowledge.LabelModuleHealth + "." + mod,
		Value:   state,
		Version: ver,
	})
	if !ok {
		t.Fatalf("gossip %s/%s=%s rejected", creator, mod, state)
	}
}

func TestHealthCorrAlertsOnCoordinatedQuarantine(t *testing.T) {
	h := newHarness(true)
	mod, err := NewHealthCorr(map[string]string{"minPeers": "3"})
	if err != nil {
		t.Fatal(err)
	}
	h.kb.PutInt("Peers", 2)
	if !mod.Required(h.kb) {
		t.Fatal("not required with peers present")
	}
	h.activate(mod)

	// Two peers and the local supervisor quarantine the same module.
	gossipHealth(t, h.kb, "K2", "SybilModule", "quarantined", 1)
	gossipHealth(t, h.kb, "K3", "SybilModule", "quarantined", 1)
	if len(h.alerts) != 0 {
		t.Fatalf("alerted below threshold: %v", h.alerts)
	}
	h.kb.PutCollective(knowledge.LabelModuleHealth+".SybilModule", "", "quarantined")

	if n := h.attackNames()[attack.CoordinatedQuarantine]; n != 1 {
		t.Fatalf("coordinated-quarantine alerts = %d, want 1", n)
	}
	a := h.alerts[0]
	if len(a.Suspects) != 3 {
		t.Fatalf("suspects = %v, want 3 reporters", a.Suspects)
	}

	// Cooldown: a fourth report inside the suppress window stays quiet.
	gossipHealth(t, h.kb, "K4", "SybilModule", "quarantined", 1)
	if len(h.alerts) != 1 {
		t.Fatalf("cooldown violated: %d alerts", len(h.alerts))
	}
}

func TestHealthCorrRecoveryRetiresReports(t *testing.T) {
	h := newHarness(true)
	mod, err := NewHealthCorr(map[string]string{"minPeers": "2"})
	if err != nil {
		t.Fatal(err)
	}
	h.kb.PutInt("Peers", 2)
	h.activate(mod)

	gossipHealth(t, h.kb, "K2", "FloodModule", "quarantined", 1)
	// K2 recovers before anyone else reports: its probing transition
	// must retire the earlier quarantine report.
	gossipHealth(t, h.kb, "K3", "FloodModule", "quarantined", 1)
	if len(h.alerts) != 1 {
		t.Fatalf("two fresh reports at minPeers=2: alerts = %d", len(h.alerts))
	}
	gossipHealth(t, h.kb, "K2", "FloodModule", "probing", 2)
	gossipHealth(t, h.kb, "K3", "FloodModule", "probing", 2)
	gossipHealth(t, h.kb, "K3", "FloodModule", "quarantined", 3)
	if len(h.alerts) != 1 {
		t.Fatalf("retired report still counted: alerts = %d", len(h.alerts))
	}

	// Different modules quarantining on different nodes never correlate.
	gossipHealth(t, h.kb, "K4", "SinkholeModule", "quarantined", 1)
	if len(h.alerts) != 1 {
		t.Fatalf("cross-module correlation: alerts = %d", len(h.alerts))
	}
}

func TestHealthCorrWindowExpiry(t *testing.T) {
	h := newHarness(true)
	mod, err := NewHealthCorr(map[string]string{"minPeers": "2", "window": "1ms"})
	if err != nil {
		t.Fatal(err)
	}
	h.kb.PutInt("Peers", 1)
	h.activate(mod)

	gossipHealth(t, h.kb, "K2", "SybilModule", "quarantined", 1)
	time.Sleep(5 * time.Millisecond)
	// The first report has aged out of the 1ms window; the second alone
	// is below threshold.
	gossipHealth(t, h.kb, "K3", "SybilModule", "quarantined", 1)
	if len(h.alerts) != 0 {
		t.Fatalf("stale report correlated: %v", h.alerts)
	}
}

func TestHealthCorrGating(t *testing.T) {
	h := newHarness(false) // naive baseline: no knowledge use
	mod, err := NewHealthCorr(map[string]string{"minPeers": "1"})
	if err != nil {
		t.Fatal(err)
	}
	h.kb.PutInt("Peers", 1)
	h.activate(mod)
	gossipHealth(t, h.kb, "K2", "SybilModule", "quarantined", 1)
	if len(h.alerts) != 0 {
		t.Fatalf("knowledge-driven correlation in baseline mode: %v", h.alerts)
	}

	// Not required without peers.
	kb := knowledge.NewBase("K9")
	if mod.Required(kb) {
		t.Fatal("required without Peers knowgget")
	}
	kb.PutInt("Peers", 0)
	if mod.Required(kb) {
		t.Fatal("required with zero peers")
	}

	// Bad parameters are rejected.
	if _, err := NewHealthCorr(map[string]string{"minPeers": "x"}); err == nil {
		t.Fatal("bad minPeers accepted")
	}
	if _, err := NewHealthCorr(map[string]string{"window": "x"}); err == nil {
		t.Fatal("bad window accepted")
	}
	if _, err := NewHealthCorr(map[string]string{"cooldown": "x"}); err == nil {
		t.Fatal("bad cooldown accepted")
	}
}
