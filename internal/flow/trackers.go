package flow

import (
	"sync"
	"sync/atomic"
)

// Trackers is the endpoint-tracker registry: victim windows, TCP
// handshake ledgers, identity fingerprints, motion tracks and
// forwarding watches, deduplicated by configuration, plus the alert
// cooldown ledgers, one per owner (see Cooldown) — all
// reference-counted. Every Table points at one — private by default, or
// shared across tables via Config.Trackers.
//
// Sharing exists for the sharded ingestion pipeline: packets shard by
// *source* hash, but these trackers key their evidence by victim,
// responder or transmitter identity — under a spoofed-source flood the
// attack traffic scatters across every shard while the victim's window
// must still accumulate globally, or no shard ever crosses the alert
// threshold. A sharded node therefore gives all per-shard flow tables
// one registry: endpoint-keyed evidence is global, 5-tuple flow state
// stays shard-local. Every tracker locks internally, so concurrent
// Observe calls from several shard workers are safe.
type Trackers struct {
	mu sync.Mutex
	// byKey holds every live entry under its configuration key; each
	// kind has its own key type, so kinds cannot collide.
	byKey map[any]registered

	// observe is the copy-on-write Tracker list: Table.Update loads the
	// snapshot with one atomic read per packet; acquire and release swap
	// it under mu.
	observe atomic.Value // []Tracker
}

// NewTrackers creates an empty registry, shareable across flow tables
// via Config.Trackers.
func NewTrackers() *Trackers { return &Trackers{byKey: make(map[any]registered)} }

// registered is what the registry holds: anything embedding a handle.
type registered interface{ registration() *handle }

// handle is the registry bookkeeping every entry embeds: the registry
// holding it (nil for a standalone one), its key there, the entry as
// the observe list holds it (nil when it observes nothing), and the
// number of acquirers.
type handle struct {
	reg  *Trackers
	key  any
	tr   Tracker
	refs int
}

func (h *handle) registration() *handle { return h }

// Release returns the handle; the last release detaches the entry from
// its registry, and its state goes with it (standalone ones ignore
// Release).
func (h *handle) Release() {
	r := h.reg
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.refs--; h.refs <= 0 {
		delete(r.byKey, h.key)
		if h.tr != nil {
			r.dropLocked(h.tr)
		}
	}
}

// acquire returns the registry's entry for the configuration key,
// creating it with mk on first use, and counts the caller as a holder:
// alike-configured callers share one tracker, so its state updates once
// per packet however many modules read it. Only an entry that is a
// Tracker joins the per-packet observe list.
func acquire[T registered](r *Trackers, key any, mk func() T) T {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.byKey[key].(T)
	if !ok {
		e = mk()
		tr, _ := any(e).(Tracker)
		*e.registration() = handle{reg: r, key: key, tr: tr}
		r.byKey[key] = e
		if tr != nil {
			r.addLocked(tr)
		}
	}
	e.registration().refs++
	return e
}

// snapshot returns the current observe list (nil when empty).
func (r *Trackers) snapshot() []Tracker {
	s, _ := r.observe.Load().([]Tracker)
	return s
}

// addLocked appends a tracker copy-on-write. Callers must hold r.mu.
func (r *Trackers) addLocked(tr Tracker) {
	cur := r.snapshot()
	next := make([]Tracker, len(cur), len(cur)+1)
	copy(next, cur)
	r.observe.Store(append(next, tr))
}

// dropLocked removes a tracker copy-on-write. Callers must hold r.mu.
func (r *Trackers) dropLocked(tr Tracker) {
	cur := r.snapshot()
	next := make([]Tracker, 0, len(cur))
	for _, x := range cur {
		if x != tr {
			next = append(next, x)
		}
	}
	r.observe.Store(next)
}
