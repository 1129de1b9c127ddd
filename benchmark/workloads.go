package main

import (
	"fmt"
	"time"

	"kalis"
	"kalis/internal/eval"
)

// workload is one input mix. Every workload runs two segments, so that
// every end-to-end metric is measured on every run (the benchmark
// contract prints them all): a packet segment (raw frames replayed into
// long-lived nodes) and a fleet segment (fleet.Run gossip). The primary
// segment — the one the workload exists for — gets primaryShare of the
// measured seconds, the companion the rest.
type workload struct {
	Name string
	Why  string
	// Scenarios are eval scenario names recorded to raw frames, one
	// long-lived node each.
	Scenarios []string
	// Episodes is the attack-episode count per scenario.
	Episodes int
	// Shards > 1 runs the nodes through the sharded ingest rings.
	Shards int
	// Durable gives every node a state directory, and ends the run with
	// Close and warm re-opens.
	Durable bool
	// FleetPrimary makes the fleet segment the primary one.
	FleetPrimary bool
}

const (
	// runSeconds is the measured seconds of a run that BENCHMARK.json
	// asks the driver for, and the -seconds default: enough for about
	// sixteen passes of the longest trace at the sandbox's slow speed.
	runSeconds   = 15
	primaryShare = 0.7
	// fleetNodes is the simulated fleet size of every fleet segment. At
	// 1000 nodes convergence takes 5 rounds on nearly every seed; a
	// smaller fleet flips between 4 and 5, which no median steadies.
	fleetNodes = 1000
	// minPasses is the fewest timed passes of a packet segment, primary
	// or companion: with a dozen replays of every lap and frame, one is
	// at the sandbox's fast speed even when four fifths of the time is
	// slow. minFleetReps is the fewest timed repetitions of a primary
	// fleet segment; a companion takes half as many.
	minPasses    = 12
	minFleetReps = 12
	// warmReopens is how many warm restarts the durable workload times.
	warmReopens = 20
	// smokeEpisodes and smokeFleetNodes size the -smoke run: a few per
	// cent of full size, the least whose shortest pass (one smurf trace)
	// still has ten frames beyond its p99.5.
	smokeEpisodes   = 16
	smokeFleetNodes = 64
)

// workloads are the five input mixes; names are normative (later issues
// cite them). Sizes are ISSUE 11's targets scaled down until a pass
// lasts 0.2 to 0.6 s: the timings are built from the fastest replay of
// every lap (see laps), so what steadies them is the number of replays
// the measured seconds hold, not the length of one.
var workloads = []workload{
	{
		Name:      "wifi-flood",
		Why:       "WiFi/IPv4 floods: decode is a third of a frame, 5 modules, 5-tuple flow churn, an alert per 80 frames; where a cheaper decode, flow table or flood tracker shows",
		Scenarios: []string{"icmp-flood", "syn-flood", "smurf"},
		Episodes:  150,
	},
	{
		Name:      "wsn-routing",
		Why:       "802.15.4/CTP routing attacks: decode is a seventh of a frame, 10 modules, Knowledge-Base churn; where module dispatch, KB locks and per-module timing show and decode hardly does",
		Scenarios: []string{"selective-forwarding", "sinkhole", "replication", "sybil"},
		Episodes:  50,
	},
	{
		Name:      "wifi-flood-sharded",
		Why:       "the wifi-flood frames through 2 shard rings with blocking skew-paced ingest: the only path through internal/ingest and the cross-shard flow.Trackers",
		Scenarios: []string{"icmp-flood", "syn-flood", "smurf"},
		Episodes:  150,
		Shards:    2,
	},
	{
		Name:      "wsn-durable",
		Why:       "selective-forwarding with a state dir: every KB change journalled, a snapshot every 30 s of trace time, then Close and warm re-opens; where persist shows and wsn-routing must not move",
		Scenarios: []string{"selective-forwarding"},
		Episodes:  35,
		Durable:   true,
	},
	{
		Name:         "fleet-gossip",
		Why:          "1000-node anti-entropy gossip to convergence: collective and knowledge version vectors only; wsn-durable's trace without a state dir rides along as the no-persist packet reference",
		Scenarios:    []string{"selective-forwarding"},
		Episodes:     35,
		FleetPrimary: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// validate refuses workload definitions the parent commit cannot run
// safely. Sharded replay of 802.15.4 traces is one: at shards=2
// blackhole/wsn dies with "concurrent map iteration and map write" in
// detection.(*Wormhole).correlate, and selective-forwarding/wsn raises
// 382 alerts against 103 on the sync path (see README.md, "Hazards").
func (w workload) validate() error {
	if len(w.Scenarios) == 0 || w.Episodes <= 0 {
		return fmt.Errorf("workload %s: needs scenarios and episodes", w.Name)
	}
	for _, name := range w.Scenarios {
		sc, ok := eval.ScenarioByName(name)
		if !ok {
			return fmt.Errorf("workload %s: unknown scenario %q", w.Name, name)
		}
		if w.Shards > 1 && sc.Medium != "wifi" {
			return fmt.Errorf("workload %s: scenario %s (%s) cannot run with shards=%d: sharded replay of non-IP traces is unsafe on this commit (data race in the wormhole detector, alert counts diverge from the sync path)",
				w.Name, sc.Name, sc.Medium, w.Shards)
		}
	}
	return nil
}

// options are the kalis.New options of one node of the workload — only
// public options, nothing that exists to make the node measurable.
func (w workload) options(stateDir string) []kalis.Option {
	var opts []kalis.Option
	if w.Shards > 1 {
		// What cmd/kalis uses for replay: lossless, skew-paced.
		opts = append(opts, kalis.WithShards(w.Shards), kalis.WithIngestBlocking(), kalis.WithIngestMaxSkew(time.Second))
	}
	if w.Durable {
		opts = append(opts, kalis.WithStateDir(stateDir))
	}
	return opts
}
