package flow

import "slices"

// Trackers is a table's endpoint-tracker registry: victim windows, TCP
// handshake ledgers, identity fingerprints, motion tracks and
// forwarding watches, deduplicated by configuration, plus the alert
// cooldown ledgers, one per owner (see Cooldown) — all
// reference-counted. Every Table owns one, and it belongs to the
// table's owner like the trackers in it: acquire, release and the
// per-packet observe walk run on one goroutine at a time (on a Kalis
// node, the shard's dispatch token holder), so nothing here locks.
type Trackers struct {
	// byKey holds every live entry under its configuration key; each
	// kind has its own key type, so kinds cannot collide.
	byKey map[any]registered
	// observe lists the entries Table.Update feeds every packet.
	observe []Tracker
}

// newTrackers creates an empty registry.
func newTrackers() *Trackers { return &Trackers{byKey: make(map[any]registered)} }

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
	if h.refs--; h.refs <= 0 {
		delete(r.byKey, h.key)
		if h.tr != nil {
			r.observe = slices.DeleteFunc(r.observe, func(x Tracker) bool { return x == h.tr })
		}
	}
}

// acquire returns the registry's entry for the configuration key,
// creating it with mk on first use, and counts the caller as a holder:
// alike-configured callers share one tracker, so its state updates once
// per packet however many modules read it. Only an entry that is a
// Tracker joins the per-packet observe list.
func acquire[T registered](r *Trackers, key any, mk func() T) T {
	e, ok := r.byKey[key].(T)
	if !ok {
		e = mk()
		tr, _ := any(e).(Tracker)
		*e.registration() = handle{reg: r, key: key, tr: tr}
		r.byKey[key] = e
		if tr != nil {
			r.observe = append(r.observe, tr)
		}
	}
	e.registration().refs++
	return e
}
