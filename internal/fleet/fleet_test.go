package fleet

import (
	"testing"

	"kalis/internal/telemetry"
)

func TestGossipFleetConverges(t *testing.T) {
	res, err := Run(Config{Nodes: 64, Producers: 4, Keys: 2, UpdatesPerKey: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("64-node fleet never converged: %d/%d after %d rounds",
			res.ConvergedNodes, res.Nodes, res.Rounds)
	}
	if res.Fleet.Converged != res.Nodes || len(res.Fleet.Laggards) != 0 {
		t.Fatalf("SIEM aggregation disagrees: %+v", res.Fleet)
	}
	if res.BytesSent == 0 || res.Digests == 0 || res.Deltas == 0 {
		t.Fatalf("no traffic recorded: %+v", res)
	}
	if len(res.Curve) != res.Rounds {
		t.Fatalf("curve has %d samples over %d rounds", len(res.Curve), res.Rounds)
	}
}

func TestGossipBytesPerNodeCeiling(t *testing.T) {
	res, err := Run(Config{Nodes: 96, Producers: 4, Keys: 2, UpdatesPerKey: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("never converged: %d/%d after %d rounds", res.ConvergedNodes, res.Nodes, res.Rounds)
	}
	// 40 runs of this config at the commit before the fan-out sample
	// became a function of the seed read 1835–2251 B/node (4–5 rounds);
	// it read 1955 until the per-message string table and front-coded
	// digests, and 1644 since. The deleted per-update push protocol this
	// test used to compare against cost more than twice that on a full
	// mesh.
	const ceiling = 2500
	if perNode := res.BytesSent / uint64(res.Nodes); perNode > ceiling {
		t.Fatalf("gossip cost %d B/node over %d rounds, ceiling %d", perNode, res.Rounds, ceiling)
	}
}

// TestFleetWireBudget: the collective's wire bytes stay where its
// encoding put them. A 1 000-node fleet converges in at most 5 rounds
// on seeds 1–3 at under 5 000 B per node; the format before the
// per-message string table and front-coded digests sent 6 696–6 866.
func TestFleetWireBudget(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(Config{Nodes: 1000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		perNode := res.BytesSent / uint64(res.Nodes)
		if !res.Converged || res.ConvergedNodes != res.Nodes || res.Rounds > 5 || perNode > 5000 {
			t.Errorf("seed %d: %d/%d nodes converged in %d rounds at %d B/node; want all, ≤ 5 rounds, ≤ 5 000 B/node",
				seed, res.ConvergedNodes, res.Nodes, res.Rounds, perNode)
		}
	}
}

// TestFleetRunIsAFunctionOfItsSeed: the fan-out shuffle draws from the
// seeded RNG, so it must not start from a map's iteration order.
func TestFleetRunIsAFunctionOfItsSeed(t *testing.T) {
	cfg := Config{Nodes: 200, Seed: 1}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again.BytesSent != first.BytesSent || again.Digests != first.Digests ||
			again.Deltas != first.Deltas || again.Rounds != first.Rounds {
			t.Fatalf("run %d differs: bytes %d/%d digests %d/%d deltas %d/%d rounds %d/%d", i+2,
				again.BytesSent, first.BytesSent, again.Digests, first.Digests,
				again.Deltas, first.Deltas, again.Rounds, first.Rounds)
		}
	}
}

func TestFleetRecoversFromPartition(t *testing.T) {
	res, err := Run(Config{
		Nodes: 48, Producers: 4, Keys: 2, UpdatesPerKey: 5,
		Seed: 5, PartitionRounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("fleet never healed: %d/%d after %d rounds", res.ConvergedNodes, res.Nodes, res.Rounds)
	}
	// While split, at least one node must have been missing state.
	duringSplit := res.Curve[7]
	if duringSplit.Converged == res.Nodes {
		t.Fatalf("partition had no effect: %+v", duringSplit)
	}
	if res.Rounds <= 8 {
		t.Fatalf("converged inside the partition window: %d rounds", res.Rounds)
	}
}

func TestFleetConvergesUnderLoss(t *testing.T) {
	res, err := Run(Config{
		Nodes: 48, Producers: 4, Keys: 2, UpdatesPerKey: 5,
		Seed: 7, LossProb: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("anti-entropy did not absorb 20%% loss: %d/%d after %d rounds",
			res.ConvergedNodes, res.Nodes, res.Rounds)
	}
}

func TestFleetTelemetryTotals(t *testing.T) {
	reg := telemetry.NewRegistry()
	res, err := Run(Config{Nodes: 32, Producers: 2, Keys: 2, UpdatesPerKey: 3, Seed: 9, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	sent, ok := snap["kalis_collective_bytes_sent_total"]
	if !ok {
		t.Fatal("kalis_collective_bytes_sent_total not registered")
	}
	if v, _ := sent.Value.(uint64); v != res.BytesSent {
		t.Fatalf("telemetry bytes %v != result bytes %d", sent.Value, res.BytesSent)
	}
	if v, _ := snap["kalis_collective_digests_sent_total"].Value.(uint64); v == 0 {
		t.Fatal("digest counter never incremented")
	}
}

func TestFleetRejectsTinyFleet(t *testing.T) {
	if _, err := Run(Config{Nodes: 1}); err == nil {
		t.Fatal("1-node fleet accepted")
	}
}
