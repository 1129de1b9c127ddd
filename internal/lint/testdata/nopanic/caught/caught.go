// Package caught is a site nopanic still fires on in the tree:
// internal/netsim/sim.go, where Sim.At refuses to schedule an event in
// the virtual past (Sim.AddNode's duplicate-name guard is the same
// shape). There the panic is a deliberate scenario-construction guard
// under a //lint:ignore nopanic with its reason; here it has none, so
// the rule must report it.
package caught

import (
	"fmt"
	"time"
)

// Sim is a virtual-time scheduler.
type Sim struct{ now time.Time }

// At schedules fn at the given virtual time.
func (s *Sim) At(t time.Time, fn func()) {
	if t.Before(s.now) {
		panic(fmt.Sprintf("netsim: scheduling %v before now %v", t, s.now)) // want nopanic
	}
	fn()
}
