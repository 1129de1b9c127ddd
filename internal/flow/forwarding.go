package flow

import (
	"cmp"
	"math"
	"slices"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// ForwardingConfig tunes a ForwardingWatch (and is its dedup key).
type ForwardingConfig struct {
	// Timeout is how long a relay has to retransmit a frame it was
	// handed before the hand-off counts as a drop.
	Timeout time.Duration
	// Window is the sliding window of per-relay outcomes.
	Window time.Duration
	// MinSamples is the in-window outcome count below which a relay is
	// not reported; at least 1 (a relay with no outcome has no ratio).
	MinSamples int
}

// RelayRatio is one relay's verdict input: what the forwarding
// detectors read instead of the evidence itself.
type RelayRatio struct {
	Relay packet.NodeID
	// H is the relay's identity handle.
	H packet.Handle
	// Ratio is the dropped share of the relay's in-window outcomes.
	Ratio float64
	// Origins counts the distinct origins the relay has dropped over the
	// tracker's lifetime. It only grows (the relay's record outlives its
	// identity handle, see packet.Sticky), so a reader that remembers it
	// knows when DroppedOrigins has something new to say; it restarts
	// only if the watch lost the record to another identity's evidence.
	Origins int
}

// ForwardingWatch implements promiscuous forwarding surveillance over
// CTP data traffic [13], [29]: every data frame handed to a relay is
// expected to be overheard again, retransmitted by that relay with an
// incremented THL, within a timeout. Per-relay drop ratios over a
// sliding window separate healthy relays from selective forwarders
// (partial drops) and blackholes (near-total drops) — the paper's
// example of techniques "generalized to detect attacks with similar
// symptoms but different severity or root causes" (§IV-B4), which is
// why it is one tracker with two detectors reading it.
//
// A frame costs what it changes: hand-offs expire from a deadline
// queue, each relay keeps a running drop count over its window, and
// the report is rebuilt only once an outcome landed or a window can
// have trimmed. A node's evidence is found by its identity handle;
// times are capture nanoseconds.
type ForwardingWatch struct {
	cfg ForwardingConfig

	// recs holds the evidence of every node heard on CTP data or as a
	// root: what the watch learned about a node survives the node's
	// eviction from the identity table.
	recs packet.Sticky[relayState]
	// deadlines is a min-heap of armed hand-offs. An entry is stale once
	// its relay's pending map no longer holds the key at that deadline
	// (satisfied, re-armed, or the record lost to another identity);
	// stale entries are dropped when popped.
	deadlines []deadline
	// walk lists, in identity order, the relays with an outcome in the
	// window: the relays a report walks.
	walk      []walkEntry
	walkSweep int

	// ratios is the report; it holds until an outcome lands (dirty) or
	// the capture time passes nextTrim, the earliest time a walked
	// relay's oldest outcome leaves its window.
	ratios   []RelayRatio
	dirty    bool
	nextTrim int64

	handle
}

// relayState is one node's evidence.
type relayState struct {
	id packet.NodeID
	// root marks a collection root (advertises ETX 0); roots
	// legitimately never forward.
	root bool
	// walked is set while the record is on the walk.
	walked bool
	// pending maps (origin, seq) → deadline of the hand-offs awaiting a
	// retransmission by this relay.
	pending map[pendKey]int64
	// window[head:] are the in-window outcomes, oldest first; drops
	// counts the dropped ones among them.
	window []outcome
	head   int
	drops  int
	// dropped records which origins the relay dropped over its lifetime
	// (for wormhole correlation).
	dropped map[uint16]bool
}

type outcome struct {
	at      int64
	dropped bool
}

// deadline is one armed hand-off in the deadline queue.
type deadline struct {
	at  int64
	h   packet.Handle
	key pendKey
}

// walkEntry is one walked relay.
type walkEntry struct {
	h  packet.Handle
	id packet.NodeID
}

// pendKey identifies a forwarded frame by its CTP origin and sequence
// number. A comparable struct keeps the per-frame expectation update
// allocation-free (hotalloc); the previous strconv+concat key cost two
// allocations per data frame.
type pendKey struct {
	origin uint16
	seq    uint8
}

// NewForwardingWatch creates a standalone forwarding watch (not
// attached to a table); the owner calls Observe itself.
func NewForwardingWatch(cfg ForwardingConfig) *ForwardingWatch {
	return &ForwardingWatch{cfg: cfg, nextTrim: math.MaxInt64, walkSweep: minWalkSweep}
}

// Forwarding acquires the table's forwarding watch for the given
// configuration (the selective-forwarding and blackhole modules share
// one when configured alike, so the state updates once per packet).
func (t *Table) Forwarding(cfg ForwardingConfig) *ForwardingWatch {
	return acquire(t.trk, cfg, func() *ForwardingWatch { return NewForwardingWatch(cfg) })
}

// Observe implements Tracker.
func (w *ForwardingWatch) Observe(c *packet.Captured, now int64) {
	if b, ok := c.Layer("ctp-beacon").(*ctp.Beacon); ok {
		if b.ETX == 0 && c.TransmitterH != 0 {
			w.relay(c.TransmitterH, c.Transmitter).root = true
		}
		return
	}
	d, ok := c.Layer("ctp-data").(*ctp.Data)
	if !ok {
		return
	}
	w.expire(now)

	key := pendKey{origin: d.Origin, seq: d.SeqNo}
	// The transmitter just forwarded (or originated) this frame; any
	// pending expectation on it is satisfied.
	if c.TransmitterH != 0 {
		if r := w.relay(c.TransmitterH, c.Transmitter); r.pending != nil {
			if _, waiting := r.pending[key]; waiting {
				delete(r.pending, key)
				w.land(c.TransmitterH, r, outcome{at: now, dropped: false})
			}
		}
	}
	// The frame is now in the hands of its link-layer destination; if
	// that node is a relay (not a collection root, not broadcast), it
	// must forward in turn — register the expectation even for frames
	// that themselves satisfied one, so every hop of a chain is
	// monitored.
	if c.DstH == 0 || c.Dst == packet.Broadcast {
		return
	}
	r := w.relay(c.DstH, c.Dst)
	if r.root {
		return
	}
	if r.pending == nil {
		r.pending = make(map[pendKey]int64)
	}
	at := w.after(now, int64(w.cfg.Timeout))
	r.pending[key] = at
	w.push(deadline{at: at, h: c.DstH, key: key})
}

// relay returns the node's record, creating it. A record the node left
// under an earlier handle comes back, and the queue and the walk follow
// it to the new handle.
func (w *ForwardingWatch) relay(h packet.Handle, id packet.NodeID) *relayState {
	r, fresh, moved := w.recs.Put(h, id)
	if fresh {
		r.id = id
	}
	if moved != 0 {
		for i := range w.deadlines {
			if w.deadlines[i].h == moved {
				w.deadlines[i].h = h
			}
		}
		for i := range w.walk {
			if w.walk[i].h == moved {
				w.walk[i].h = h
			}
		}
		w.dirty = true // the report names the relay by handle
	}
	return r
}

// expire converts overdue expectations into drop outcomes, popping the
// deadline queue up to now.
func (w *ForwardingWatch) expire(now int64) {
	for len(w.deadlines) > 0 && now > w.deadlines[0].at {
		e := w.pop()
		r := w.recs.Get(e.h)
		if r == nil {
			continue // the record was lost to another identity
		}
		if at, armed := r.pending[e.key]; !armed || at != e.at {
			continue // satisfied or re-armed since
		}
		delete(r.pending, e.key)
		if r.dropped == nil {
			r.dropped = make(map[uint16]bool)
		}
		r.dropped[e.key.origin] = true
		w.land(e.h, r, outcome{at: now, dropped: true})
	}
}

// land appends an outcome to a relay's window, putting the relay on
// the walk.
func (w *ForwardingWatch) land(h packet.Handle, r *relayState, o outcome) {
	if r.head > 0 && len(r.window) == cap(r.window) {
		r.window = r.window[:copy(r.window, r.window[r.head:])]
		r.head = 0
	}
	r.window = append(r.window, o)
	if o.dropped {
		r.drops++
	}
	if !r.walked {
		r.walked = true
		at, _ := slices.BinarySearchFunc(w.walk, r.id, func(e walkEntry, id packet.NodeID) int {
			return cmp.Compare(e.id, id)
		})
		w.walk = slices.Insert(w.walk, at, walkEntry{h: h, id: r.id})
		if len(w.walk) >= w.walkSweep {
			// Relays whose record was lost leave the walk at the next
			// report; under a flood of spoofed relays the walk is swept
			// here too whenever it has doubled.
			w.walk = slices.DeleteFunc(w.walk, func(e walkEntry) bool { return w.recs.Get(e.h) == nil })
			w.walkSweep = max(minWalkSweep, 2*len(w.walk))
		}
	}
	w.dirty = true
}

// minWalkSweep is the walk length below which it is never swept
// outside a report.
const minWalkSweep = 1024

// Ratios appends to buf[:0] the windowed drop ratio of every relay with
// at least MinSamples outcomes in the window ending at now (capture
// nanoseconds), in relay identity order. It covers relays whose latest
// evidence is an expiry (a dropper never transmits again), which is why
// detectors poll it on every frame; in steady state a poll allocates
// nothing.
func (w *ForwardingWatch) Ratios(now int64, buf []RelayRatio) []RelayRatio {
	if w.dirty || now > w.nextTrim {
		w.report(now)
	}
	return append(buf[:0], w.ratios...)
}

// report trims every walked window to the one ending at now and
// rebuilds the report. A relay whose window empties leaves the walk,
// and, with no hand-off pending, releases its evidence but the
// dropped-origin set (which only grows); a relay whose record was lost
// to another identity leaves the walk too.
func (w *ForwardingWatch) report(now int64) {
	window := int64(w.cfg.Window)
	w.ratios = w.ratios[:0]
	w.nextTrim = math.MaxInt64
	kept := 0
	for _, e := range w.walk {
		r := w.recs.Get(e.h)
		if r == nil {
			continue
		}
		for r.head < len(r.window) && now > w.after(r.window[r.head].at, window) {
			if r.window[r.head].dropped {
				r.drops--
			}
			r.head++
		}
		n := len(r.window) - r.head
		if n == 0 {
			r.walked, r.window, r.head = false, r.window[:0], 0
			if len(r.pending) == 0 {
				r.pending, r.window = nil, nil
			}
			continue
		}
		w.walk[kept] = e
		kept++
		w.nextTrim = min(w.nextTrim, w.after(r.window[r.head].at, window))
		if n >= w.cfg.MinSamples {
			w.ratios = append(w.ratios, RelayRatio{Relay: r.id, H: e.h, Ratio: float64(r.drops) / float64(n), Origins: len(r.dropped)})
		}
	}
	clear(w.walk[kept:])
	w.walk = w.walk[:kept]
	w.dirty = false
}

// after returns at + d, saturating as time.Time.Sub does.
func (w *ForwardingWatch) after(at, d int64) int64 {
	s := at + d
	if (s > at) != (d > 0) {
		if d > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

// push adds a hand-off to the deadline queue.
func (w *ForwardingWatch) push(e deadline) {
	h := append(w.deadlines, e)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if h[p].at <= h[j].at {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	w.deadlines = h
}

// pop removes and returns the earliest deadline.
func (w *ForwardingWatch) pop() deadline {
	h := w.deadlines
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		c := 2*j + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[j].at <= h[c].at {
			break
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
	w.deadlines = h
	return top
}

// DroppedOrigins returns, sorted, the origins the relay has dropped
// (the payload of SuspectBlackhole knowggets).
func (w *ForwardingWatch) DroppedOrigins(relay packet.Handle) []uint16 {
	var dropped map[uint16]bool
	if r := w.recs.Get(relay); r != nil {
		dropped = r.dropped
	}
	out := make([]uint16, 0, len(dropped))
	for o := range dropped {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}
