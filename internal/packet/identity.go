package packet

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Identity handles. Per-frame state (flow entries, tracker evidence,
// sensing counters) is keyed by a small integer rather than by the
// NodeID string: a handle indexes a slice where a string would hash
// into a map. Handles come from one process-wide identity table of
// fixed capacity, so a flood of spoofed identities cannot grow it: when
// it is full, a new identity evicts an old one (CLOCK order: an
// identity seen since the hand last passed it is spared, so the nodes
// that keep talking outlive a one-frame spoofed source).
//
// A handle is a slot and a generation. Eviction bumps the slot's
// generation, so a holder of an evicted identity's handle finds that
// the slot has moved on (ByHandle.Get misses) instead of reading the
// state of whoever holds the slot now. Handle 0 is never assigned: it
// is the handle of the empty NodeID.

// Handle names one identity of the identity table: the low
// handleSlotBits are its slot, the rest its generation.
type Handle uint32

const (
	handleSlotBits = 12
	slotMask       = 1<<handleSlotBits - 1
	// generations wrap before the 32-bit handle does, skipping 0.
	maxGeneration = 1<<(32-handleSlotBits) - 1

	// IdentityCapacity is how many identities hold a handle at once
	// (slot 0 is reserved for handle 0).
	IdentityCapacity = 1<<handleSlotBits - 1
)

// Slot is the handle's index into per-identity slices, in
// [1, IdentityCapacity]; 0 for handle 0.
func (h Handle) Slot() int { return int(h & slotMask) }

// identityTable is the process-wide handle table. Lookups by name take
// its lock; Decode's lock-free intern cache remembers handles and only
// asks Seen whether one is still live.
type identityTable struct {
	mu     sync.Mutex
	byName map[NodeID]Handle
	names  [slotMask + 1]NodeID
	// cur is the live handle of each slot, 0 while the slot is free.
	cur [slotMask + 1]atomic.Uint32
	// ref are the CLOCK reference bits.
	ref  [slotMask + 1]atomic.Bool
	used int // slots 1..used have been handed out
	hand int // the CLOCK hand: the last slot it looked at
}

var identities = identityTable{byName: make(map[NodeID]Handle)}

// HandleOf returns the identity's handle, assigning one (and, with the
// table full, evicting another identity) on first sight or after the
// identity's own eviction. The empty NodeID has handle 0.
func HandleOf(id NodeID) Handle {
	if id == "" {
		return 0
	}
	t := &identities
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.byName[id]; ok {
		t.ref[h.Slot()].Store(true)
		return h
	}
	s := t.freeSlotLocked()
	gen := t.cur[s].Load()>>handleSlotBits + 1
	if gen > maxGeneration {
		gen = 1
	}
	h := Handle(gen<<handleSlotBits | uint32(s))
	if old := t.names[s]; old != "" {
		delete(t.byName, old)
	}
	t.names[s] = id
	t.byName[id] = h
	t.cur[s].Store(uint32(h))
	return h
}

// freeSlotLocked returns a never-used slot or, with all in use, the
// first one the CLOCK hand finds unreferenced (clearing reference bits
// as it passes: at most two sweeps).
func (t *identityTable) freeSlotLocked() int {
	if t.used < IdentityCapacity {
		t.used++
		return t.used
	}
	for {
		t.hand = t.hand%IdentityCapacity + 1
		if !t.ref[t.hand].Swap(false) {
			return t.hand
		}
	}
}

// Seen reports whether the handle is still live, and marks it recently
// used for the eviction order. It takes no lock: it is the intern
// cache's hit path.
func Seen(h Handle) bool {
	s := h.Slot()
	if h == 0 || Handle(identities.cur[s].Load()) != h {
		return false
	}
	if r := &identities.ref[s]; !r.Load() {
		r.Store(true)
	}
	return true
}

// Live reports whether the handle still names its identity.
func Live(h Handle) bool {
	return h != 0 && Handle(identities.cur[h.Slot()].Load()) == h
}

// LiveIdentities is how many identities hold a handle.
func LiveIdentities() int {
	identities.mu.Lock()
	defer identities.mu.Unlock()
	return len(identities.byName)
}

// Identify gives a capture built by hand the handles Decode would give
// its identities, and returns it. Every consumer of captures expects
// them: the flow table and ByHandle.Put panic on a capture built
// without (CheckHandles), rather than let every identity of such
// captures share handle 0.
func (c *Captured) Identify() *Captured {
	c.SrcH, c.DstH, c.TransmitterH = HandleOf(c.Src), HandleOf(c.Dst), HandleOf(c.Transmitter)
	return c
}

// CheckHandles panics unless every non-empty identity of the capture
// carries a handle.
func (c *Captured) CheckHandles() {
	if c.SrcH == 0 && c.Src != "" || c.DstH == 0 && c.Dst != "" || c.TransmitterH == 0 && c.Transmitter != "" {
		handleZero()
	}
}

// handleZero fails a capture built by hand without Identify.
func handleZero() {
	//lint:ignore nopanic a capture built by hand without Identify would file every identity's state under handle 0; failing loudly is the contract
	panic("packet: state stored under handle 0: build hand-made captures with Captured.Identify")
}

// ByHandle is per-identity state kept in a slice indexed by handle
// slot, grown to the highest slot stored: memory follows the handles
// its owner has seen, never the table's capacity. Each entry remembers
// the handle it belongs to, so state of an evicted identity is never
// served to the identity now holding the slot. The zero value is ready
// to use.
type ByHandle[T any] struct {
	e []handleEntry[T]
	n int
}

type handleEntry[T any] struct {
	h Handle
	v T
}

// Get returns the identity's state, or nil when it holds none: never
// stored, or its slot now belongs to another identity.
func (m *ByHandle[T]) Get(h Handle) *T {
	if s := h.Slot(); h != 0 && s < len(m.e) && m.e[s].h == h {
		return &m.e[s].v
	}
	return nil
}

// Put returns the identity's state, creating it zeroed (fresh) when it
// holds none; state an evicted identity left in the slot is dropped.
// It panics on handle 0, the handle of no identity: a capture built by
// hand must be given its handles with Captured.Identify.
func (m *ByHandle[T]) Put(h Handle) (v *T, fresh bool) {
	s := h.Slot()
	if h == 0 {
		handleZero()
	}
	if s >= len(m.e) {
		m.e = slices.Grow(m.e, s+1-len(m.e))[:s+1]
	}
	e := &m.e[s]
	if e.h != h {
		if e.h == 0 {
			m.n++
		}
		var zero T
		e.h, e.v = h, zero
		fresh = true
	}
	return &e.v, fresh
}

// Len is how many slots hold state (of a live identity or of an
// evicted one whose slot this owner has not reused yet): at most
// IdentityCapacity.
func (m *ByHandle[T]) Len() int { return m.n }

// Range calls fn for every stored state, in slot order, with the handle
// it was stored under; live reports whether that identity still holds
// its handle.
func (m *ByHandle[T]) Range(fn func(h Handle, live bool, v *T)) {
	for s := range m.e {
		if e := &m.e[s]; e.h != 0 {
			fn(e.h, Live(e.h), &e.v)
		}
	}
}

// Reset drops every state, keeping the slice.
func (m *ByHandle[T]) Reset() {
	clear(m.e)
	m.e, m.n = m.e[:0], 0
}

// at returns the entry of slot s, nil beyond the slice.
func (m *ByHandle[T]) at(s int) *handleEntry[T] {
	if s < len(m.e) {
		return &m.e[s]
	}
	return nil
}

// Sticky is per-identity state that outlives its identity's handle. It
// is found by handle, as in a ByHandle; but an identity evicted from the
// table and back under a new handle finds here the state it left,
// looked up by name once, on its first Put under the new handle. What a
// holder learned about a node over minutes (a collection root, a
// relay's drop record) thus survives a flood of spoofed identities that
// laps the table between two of the node's frames. It is bounded as a
// ByHandle is: an identity's state is lost only once this holder files
// another identity's state in the slot it occupies.
type Sticky[T any] struct {
	by ByHandle[named[T]]
	// names maps each stored state's identity to the handle it is filed
	// under.
	names map[NodeID]Handle
}

type named[T any] struct {
	id NodeID
	v  T
}

// Get returns the state filed under h, or nil.
func (m *Sticky[T]) Get(h Handle) *T {
	if e := m.by.Get(h); e != nil {
		return &e.v
	}
	return nil
}

// Put returns the state of identity id, whose handle is h. State the
// identity left under an earlier handle moves to h, and moved is that
// handle (for holders that keep handles elsewhere); with none, the
// state is created zeroed (fresh). Like ByHandle.Put, it panics on
// handle 0.
func (m *Sticky[T]) Put(h Handle, id NodeID) (v *T, fresh bool, moved Handle) {
	if e := m.by.Get(h); e != nil {
		return &e.v, false, 0
	}
	if m.names == nil {
		m.names = make(map[NodeID]Handle)
	}
	if e := m.by.at(h.Slot()); e != nil && e.h != 0 && e.v.id != id {
		delete(m.names, e.v.id) // another identity's state, lost to id's
	}
	var kept named[T]
	moved, sticky := m.names[id]
	if sticky {
		src := m.by.at(moved.Slot())
		kept = src.v
		if moved.Slot() != h.Slot() {
			*src = handleEntry[named[T]]{}
			m.by.n--
		}
	}
	e, _ := m.by.Put(h)
	if sticky {
		*e = kept
	} else {
		e.id = id
	}
	m.names[id] = h
	return &e.v, !sticky, moved
}

// Len is how many identities' states are stored: at most
// IdentityCapacity.
func (m *Sticky[T]) Len() int { return m.by.Len() }

// Reset drops every state.
func (m *Sticky[T]) Reset() {
	m.by.Reset()
	clear(m.names)
}
