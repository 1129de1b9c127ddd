package main

import (
	"sync"
	"time"

	"kalis"
	"kalis/internal/attacks"
	"kalis/internal/metrics"
)

// alertSink collects one node's alerts. Sharded nodes call it from
// their shard workers, hence the lock.
type alertSink struct {
	mu     sync.Mutex
	alerts []metrics.Attribution
}

func (s *alertSink) handle(a kalis.Alert) {
	s.mu.Lock()
	s.alerts = append(s.alerts, metrics.Attribution{
		Time: a.Time, Attack: a.Attack, Victim: a.Victim,
		Suspects: a.Suspects, Confidence: a.Confidence,
	})
	s.mu.Unlock()
}

// take returns the alerts collected since the last call.
func (s *alertSink) take() []metrics.Attribution {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.alerts
	s.alerts = nil
	return out
}

// matchGrace mirrors metrics.ScoreAlerts: threshold detectors fire
// shortly after a burst ends.
const matchGrace = 10 * time.Second

// matches mirrors the attribution rule of metrics.ScoreAlerts (which
// does not export it); TestShiftKeepsScoreAcrossPasses pins the two
// together: one delay per instance ScoreAlerts counts as detected.
func matches(a metrics.Attribution, inst attacks.Instance) bool {
	if a.Time.Before(inst.Start) || a.Time.After(inst.End.Add(matchGrace)) {
		return false
	}
	if inst.Victim != "" && a.Victim == inst.Victim {
		return true
	}
	for _, s := range a.Suspects {
		if s == inst.Attacker {
			return true
		}
	}
	return a.Attack == inst.Attack
}

// detectDelays returns, for every detected instance, the capture-time
// delay in seconds from its start to its first matching alert — the
// paper's reactivity measure (§VI-C).
func detectDelays(instances []attacks.Instance, alerts []metrics.Attribution) []float64 {
	var out []float64
	for _, inst := range instances {
		var first time.Time
		for _, a := range alerts {
			if matches(a, inst) && (first.IsZero() || a.Time.Before(first)) {
				first = a.Time
			}
		}
		if !first.IsZero() {
			out = append(out, first.Sub(inst.Start).Seconds())
		}
	}
	return out
}
