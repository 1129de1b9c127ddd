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
// Async node), and 2 and 4 source-hashed shards, all blocking so a ring
// drops nothing and skew-paced as cmd/kalis replays.
//
// The ring must raise the in-line alert list field by field, with exact
// ring accounting after Close. A sharded node must raise one alert per
// incident, not one per shard: as many data-alteration alerts as in
// line on that scenario (the evidence is the frame itself), and both
// the scenario's own attack and the total within [0.8×, 1.5×] of
// in-line everywhere. Before the detectors' cooldowns moved
// into the registry beside the evidence (flow.Cooldown) each shard's
// module instance kept its own and the ratio was 2.0× and 4.0× on
// selective-forwarding, blackhole, sybil and data-alteration. The band
// is what is left: a hand-off and its retransmission hash to different
// shards, so a tracker can see them in either order and a verdict lands
// a frame earlier or later than in line, on the other side of a
// cooldown's edge (measured: −1 of 20 on smurf at 4 shards, up to +30 %
// on replication and selective-forwarding; the same noise now and then
// adds a stray alert or two of a neighbouring attack, mostly
// selective-forwarding on a busy host, which is why the band is on the
// scenario's own attack and on the total, not on every name). It closes
// with the sharding-key decision, not here.
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
				got := attributions(sharded)
				wantN, gotN := perAttack(want), perAttack(got)
				for _, c := range []struct {
					what      string
					want, got int
					exact     bool
				}{
					{"alerts", len(want), len(got), false},
					{sc.Attack + " alerts", wantN[sc.Attack], gotN[sc.Attack], sc.Name == "data-alteration/wsn"},
				} {
					lo, hi := 0.8*float64(c.want), 1.5*float64(c.want)
					if c.exact {
						lo, hi = float64(c.want), float64(c.want)
					}
					if g := float64(c.got); g < lo || g > hi {
						t.Errorf("%s: %d shards raised %d %s, in-line %d (want %.1f–%.1f)\nsharded %v active %v\nin-line %v active %v",
							name, shards, c.got, c.what, c.want, lo, hi, gotN, sharded.ActiveModules(), wantN, inline.ActiveModules())
					}
				}
			}
		}
	}
}

func attributions(k *core.Kalis) []metrics.Attribution {
	return (&kalisIDS{node: k}).Attributions()
}

// perAttack counts alerts by attack name.
func perAttack(as []metrics.Attribution) map[string]int {
	n := make(map[string]int)
	for _, a := range as {
		n[a.Attack]++
	}
	return n
}
