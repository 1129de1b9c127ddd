package eval

import (
	"reflect"
	"testing"

	"kalis/internal/core"
	"kalis/internal/metrics"
)

// TestExecutorsRaiseTheSameAlerts runs a scenario through the two
// executors of the one packet path — in line on the capture goroutine
// (the default node) and on a one-shard ring worker (an Async node,
// blocking so the ring drops nothing) — and requires the same alert
// list, field by field, plus exact ring accounting after Close.
func TestExecutorsRaiseTheSameAlerts(t *testing.T) {
	for _, name := range []string{"icmp-flood/single-hop", "selective-forwarding/wsn"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("no scenario %q", name)
		}
		replay := func(async bool) *core.Kalis {
			run := sc.Build(42, 8)
			node, err := core.New(core.Config{
				NodeID: "K1", KnowledgeDriven: true, WindowSize: 2048, InstallAll: true,
				Async: async, IngestBlock: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			run.Sniffer.Subscribe(node.HandleCapture)
			run.Sim.Run(run.End)
			if err := node.Close(); err != nil {
				t.Fatal(err)
			}
			return node
		}
		inline, ring := replay(false), replay(true)

		want, got := attributions(inline), attributions(ring)
		if len(want) == 0 {
			t.Fatalf("%s: the in-line node raised no alerts", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ring executor raised %d alerts, in-line %d; lists differ:\nring   %+v\ninline %+v",
				name, len(got), len(want), got, want)
		}
		if st := inline.IngestStats(); st.Enqueued != 0 {
			t.Errorf("%s: in-line node has ring stats %+v", name, st)
		}
		st := ring.IngestStats()
		packets, _, _ := ring.Stats()
		if st.Enqueued == 0 || st.Enqueued != st.Accepted+st.Dropped || st.Delivered != st.Accepted ||
			st.Dropped != 0 || packets != st.Delivered {
			t.Errorf("%s: ring accounting %+v, %d packets dispatched", name, st, packets)
		}
	}
}

func attributions(k *core.Kalis) []metrics.Attribution {
	return (&kalisIDS{node: k}).Attributions()
}
