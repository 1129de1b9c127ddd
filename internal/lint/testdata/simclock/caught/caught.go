// Package caught is the site simclock still fires on in the tree:
// internal/core/detection/healthcorr.go, where HealthCorr dates
// gossiped module-health reports by wall-clock arrival. There the read
// is deliberate, under a //lint:ignore simclock with its reason; here
// it has none, so the rule must report it.
package caught

import (
	"time"

	"kalis/internal/core/knowledge"
)

// HealthCorr keeps the quarantine reports it has seen, by label.
type HealthCorr struct{ seen map[string]time.Time }

// HandleKnowledge dates a health report by its arrival.
func (d *HealthCorr) HandleKnowledge(kg knowledge.Knowgget) {
	d.seen[kg.Label] = time.Now() // want simclock
}
