package kalis

// Crash-during-attack drill: the durable-state counterpart of
// TestChaosScenario. A persisted Kalis node monitors a WSN
// selective-forwarding attack — detection knowledge-gated on the
// learned Multihop topology; mid-attack the harness kills its host
// dirty —
// fault.CrashNodeDirty revokes the host and tears the state log
// mid-frame, exactly as a power cut during an append would. The node
// is then rebooted twice, as two rival histories:
//
//   - warm: reopened on the torn state dir — recovery must classify
//     truncated, keep the knowledge in the verified prefix of the log,
//     and come back knowing the network, with an empty window: the
//     state dir holds knowledge, not traffic;
//   - cold: a fresh state dir — the paper's baseline, re-learning the
//     network from nothing while the attack continues.
//
// The drill asserts the warm restart re-detects the ongoing attack
// measurably sooner than the cold one, with every claim backed by a
// live telemetry scrape (kalis_persist_recoveries_total,
// kalis_persist_sync_total, kalis_fault_injected_total). Node A never
// checkpoints before the cut — its log stays far under the threshold —
// so the warm reboot comes back from the log alone, as far as its sync
// points made it durable.

import (
	"fmt"
	"testing"
	"time"

	"kalis/internal/core"
	"kalis/internal/core/module"
	"kalis/internal/eval"
	"kalis/internal/fault"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/persist"
)

// recordScenario runs the attack simulation once with a plain
// collector attached and returns every overheard frame in capture
// order — the drill replays slices of this record to each node
// under test, so both histories see identical traffic.
func recordScenario(t *testing.T, name string, seed int64, episodes int) []*packet.Captured {
	t.Helper()
	sc, ok := eval.ScenarioByName(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	run := sc.Build(seed, episodes)
	var frames []*packet.Captured
	run.Sniffer.Subscribe(func(c *packet.Captured) { frames = append(frames, c) })
	run.Sim.Run(run.End)
	if len(frames) == 0 {
		t.Fatal("scenario produced no traffic")
	}
	return frames
}

// persistedNode builds a synchronous knowledge-driven node with
// durable state in dir and collects its alerts.
func persistedNode(t *testing.T, dir string) (*core.Kalis, *[]module.Alert) {
	t.Helper()
	k, err := core.New(core.Config{
		NodeID:          "K1",
		KnowledgeDriven: true,
		InstallAll:      true,
		StateDir:        dir,
		PersistInterval: 2 * time.Second, // capture-clock seconds
	})
	if err != nil {
		t.Fatal(err)
	}
	var alerts []module.Alert
	k.OnAlert(func(a module.Alert) { alerts = append(alerts, a) })
	return k, &alerts
}

// firstAlertAfter returns the earliest alert time strictly after cut.
func firstAlertAfter(alerts []module.Alert, cut time.Time) (time.Time, bool) {
	var first time.Time
	for _, a := range alerts {
		if !a.Time.After(cut) {
			continue
		}
		if first.IsZero() || a.Time.Before(first) {
			first = a.Time
		}
	}
	return first, !first.IsZero()
}

func TestCrashRecoveryDrill(t *testing.T) {
	const seed = 42
	frames := recordScenario(t, "selective-forwarding/wsn", seed, 6)

	// --- act I: a persisted node monitors the attack ----------------
	dirA := t.TempDir()
	nodeA, alertsA := persistedNode(t, dirA)
	if got := nodeA.Persistence().Outcome(); got != persist.OutcomeCold {
		t.Fatalf("fresh state dir outcome = %s (want cold)", got)
	}

	crashAt := -1
	for i, c := range frames {
		nodeA.HandleCapture(c.Clone())
		// Replayed far faster than captured, a frame's sync point would
		// still be in flight at the next one's: let each land first, as
		// it does at capture speed.
		if err := nodeA.Persistence().Err(); err != nil {
			t.Fatal(err)
		}
		if len(*alertsA) > 0 && i > len(frames)/3 {
			crashAt = i // mid-attack, past the first detection
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("scenario never triggered a first detection")
	}
	tCrash := frames[crashAt].Time

	// --- act II: the power cut, mid-journal-write -------------------
	// The IDS host lives in a simulation of its own; CrashNodeDirty
	// revokes it on the virtual clock and runs the dirty hook — the
	// torn write. Node A is abandoned without Close: no shutdown
	// flush, no final snapshot, exactly like a dying process.
	inj := fault.New(seed)
	inj.SetMetrics(fault.Metrics{
		Injected: nodeA.Telemetry().CounterVec("kalis_fault_injected_total", "kind",
			"Faults injected by the chaos harness, by kind."),
	})
	hostSim := netsim.New(seed)
	hostSim.AddNode(&netsim.Node{Name: "ids-host"})
	crashed := false
	inj.CrashNodeDirty(hostSim, "ids-host", 10*time.Millisecond, 0, func() {
		if err := persist.Tear(dirA, 3); err != nil {
			t.Errorf("tear log: %v", err)
		}
		crashed = true
	})
	hostSim.RunFor(20 * time.Millisecond)
	if !crashed {
		t.Fatal("CrashNodeDirty never fired")
	}
	if !hostSim.Node("ids-host").Revoked() {
		t.Fatal("crashed host still on the air")
	}
	bodyA := scrape(t, nodeA.Telemetry().Handler())
	if got := metricValue(t, bodyA, `kalis_fault_injected_total{kind="crashdirty"}`); got != 1 {
		t.Errorf("crashdirty injections = %v (want 1)", got)
	}
	if got := metricValue(t, bodyA, `kalis_persist_sync_total`); got < 1 {
		t.Errorf("no sync point before the crash (%v)", got)
	}

	// --- act III: two rival reboots ---------------------------------
	nodeW, alertsW := persistedNode(t, dirA) // warm: the torn state dir
	defer nodeW.Close()
	if got := nodeW.Persistence().Outcome(); got != persist.OutcomeTruncated {
		t.Fatalf("warm reboot outcome = %s (want truncated)", got)
	}
	if nodeW.KB().Len() == 0 {
		t.Fatal("warm reboot recovered an empty Knowledge Base")
	}
	t.Logf("%d frames, crash at %d, window %d, %d knowggets restored", len(frames), crashAt, len(nodeA.Recent(0)), nodeW.KB().Len())
	if got := len(nodeW.Recent(0)); got != 0 {
		t.Fatalf("warm reboot's window holds %d frames: a state dir holds knowledge only", got)
	}

	nodeC, alertsC := persistedNode(t, t.TempDir()) // cold: from nothing
	defer nodeC.Close()
	if got := nodeC.Persistence().Outcome(); got != persist.OutcomeCold {
		t.Fatalf("cold reboot outcome = %s (want cold)", got)
	}

	// The attack continues: both reboots watch the identical tail.
	for _, c := range frames[crashAt+1:] {
		nodeW.HandleCapture(c.Clone())
		nodeC.HandleCapture(c.Clone())
	}

	// --- act IV: time-to-redetection, warm vs cold ------------------
	warmAt, warmOK := firstAlertAfter(*alertsW, tCrash)
	coldAt, coldOK := firstAlertAfter(*alertsC, tCrash)
	if !warmOK {
		t.Fatal("warm reboot never re-detected the attack")
	}
	if !coldOK {
		t.Fatal("cold reboot never re-detected the attack")
	}
	ttrWarm := warmAt.Sub(tCrash)
	ttrCold := coldAt.Sub(tCrash)
	t.Logf("time-to-redetection: warm %v, cold %v (crash at %v into capture)",
		ttrWarm, ttrCold, tCrash.Sub(frames[0].Time))
	if ttrWarm >= ttrCold {
		t.Errorf("warm restart not faster: warm %v vs cold %v", ttrWarm, ttrCold)
	}
	// --- epilogue: recovery ladder visible in live scrapes ----------
	bodyW := scrape(t, nodeW.Telemetry().Handler())
	if got := metricValue(t, bodyW, `kalis_persist_recoveries_total{outcome="truncated"}`); got != 1 {
		t.Errorf("warm scrape: recoveries{truncated} = %v (want 1)", got)
	}
	bodyC := scrape(t, nodeC.Telemetry().Handler())
	if got := metricValue(t, bodyC, `kalis_persist_recoveries_total{outcome="cold"}`); got != 1 {
		t.Errorf("cold scrape: recoveries{cold} = %v (want 1)", got)
	}
	if testing.Verbose() {
		fmt.Printf("crash drill: warm TTR %v vs cold TTR %v\n", ttrWarm, ttrCold)
	}
}
