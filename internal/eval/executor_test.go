package eval

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kalis/internal/core"
	"kalis/internal/metrics"
)

// TestExecutorsRaiseTheSameAlerts replays every scenario, seeds 1–3,
// through each deployment shape of the one packet path — in line on
// the capture goroutine (the default node), a one-shard ring worker (an
// Async node), and nodes asked for 2 and 4 shards, which route by
// medium, all blocking so a ring drops nothing and skew-paced as
// cmd/kalis replays.
//
// The ring must raise the in-line alert list field by field, with exact
// ring accounting after Close. A sharded node must raise the in-line
// alerts exactly — every field, module and details included: a shard
// owns whole media, so a scenario's frames meet one shard's modules,
// trackers and cooldowns in capture order, as in line.
func TestExecutorsRaiseTheSameAlerts(t *testing.T) {
	replay := func(sc Scenario, seed int64, cfg core.Config) *core.Kalis {
		run := sc.Build(seed, 8)
		cfg.NodeID, cfg.KnowledgeDriven, cfg.WindowSize, cfg.InstallAll = "K1", true, 2048, true
		cfg.IngestBlock, cfg.IngestMaxSkew = true, time.Second
		node, err := core.New(cfg)
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
	for _, sc := range AllScenarios() {
		for seed := int64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s seed %d", sc.Name, seed)
			inline, ring := replay(sc, seed, core.Config{}), replay(sc, seed, core.Config{Async: true})

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

			for _, shards := range []int{2, 4} {
				sharded := replay(sc, seed, core.Config{Shards: shards})
				if got, want := sharded.Alerts(), inline.Alerts(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %d shards raised %d alerts, in-line %d; lists differ:\nsharded %+v\ninline  %+v",
						name, shards, len(got), len(want), got, want)
				}
			}
		}
	}
}

func attributions(k *core.Kalis) []metrics.Attribution {
	return (&kalisIDS{node: k}).Attributions()
}
