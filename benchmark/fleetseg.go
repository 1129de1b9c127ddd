package main

import (
	"fmt"
	"time"

	"kalis/internal/fleet"
)

// fleetRep is one timed fleet.Run.
type fleetRep struct {
	Wall   time.Duration
	Result *fleet.Result
}

// fleetSeg is the fleet segment of one run.
type fleetSeg struct {
	Nodes    int
	Reps     []fleetRep
	Failures []string
	// Unconverged counts nodes that missed a final value at MaxRounds,
	// over all timed repetitions.
	Unconverged int
}

// runFleet repeats fleet.Run on a simulated fleet of the given size:
// warm untimed repetitions, then timed ones until both the budget is
// spent and minReps are in. Repetition i uses seed+i; fleet.Run is not
// bit-reproducible for a fixed seed (map order reaches the wire), so
// every figure taken from it is a median over repetitions.
func runFleet(seed int64, nodes, warm, minReps int, budget time.Duration) (*fleetSeg, error) {
	seg := &fleetSeg{Nodes: nodes}
	var spent time.Duration
	for i := 0; i < warm || len(seg.Reps) < minReps || spent < budget; i++ {
		start := time.Now()
		res, err := fleet.Run(fleet.Config{Nodes: nodes, Seed: seed + int64(i)})
		if err != nil {
			return nil, fmt.Errorf("fleet.Run: %w", err)
		}
		if i < warm {
			continue
		}
		wall := time.Since(start)
		spent += wall
		seg.Reps = append(seg.Reps, fleetRep{Wall: wall, Result: res})
		if !res.Converged {
			seg.Unconverged += nodes - res.ConvergedNodes
			seg.Failures = append(seg.Failures, fmt.Sprintf("fleet seed %d: %d of %d nodes unconverged after %d rounds",
				seed+int64(i), nodes-res.ConvergedNodes, nodes, res.Rounds))
		}
	}
	return seg, nil
}

// each returns fn over the timed repetitions.
func (f *fleetSeg) each(fn func(fleetRep) float64) []float64 {
	out := make([]float64, len(f.Reps))
	for i, r := range f.Reps {
		out[i] = fn(r)
	}
	return out
}

func (f *fleetSeg) bytesPerNode() []float64 {
	return f.each(func(r fleetRep) float64 { return float64(r.Result.BytesSent) / float64(f.Nodes) })
}

func (f *fleetSeg) rounds() []float64 {
	return f.each(func(r fleetRep) float64 { return float64(r.Result.Rounds) })
}
