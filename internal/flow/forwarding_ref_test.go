package flow

// The reference model for FuzzForwardingWatch: ForwardingWatch as it was
// before the deadline queue and the running counts — every CTP data frame
// walks every pending hand-off, and every report re-scans every relay's
// window. It is kept verbatim (renamed, with the registry handle dropped)
// so the fuzzer can hold the production watch to it output for output.

import (
	"slices"
	"sync"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// refWatch implements promiscuous forwarding surveillance over
// CTP data traffic [13], [29]: every data frame handed to a relay is
// expected to be overheard again, retransmitted by that relay with an
// incremented THL, within a timeout. Per-relay drop ratios over a
// sliding window separate healthy relays from selective forwarders
// (partial drops) and blackholes (near-total drops) — the paper's
// example of techniques "generalized to detect attacks with similar
// symptoms but different severity or root causes" (§IV-B4), which is
// why it is one tracker with two detectors reading it.
type refWatch struct {
	cfg ForwardingConfig

	mu sync.Mutex
	// pending maps relay → (origin, seq) → deadline.
	pending map[packet.NodeID]map[pendKey]time.Time
	// outcomes per relay within the sliding window; relays lists its
	// keys in identity order, so reports do not follow map order.
	outcomes map[packet.NodeID][]refOutcome
	relays   []packet.NodeID
	// roots are collection roots (advertise ETX 0); they legitimately
	// never forward.
	roots map[packet.NodeID]bool
	// dropped records which origins a relay dropped (for wormhole
	// correlation).
	dropped map[packet.NodeID]map[uint16]bool

	// ratios is the report as of capture time at; fresh until the next
	// outcome lands. Every reader of one frame asks at that frame's
	// capture time, so the per-relay recount runs once per frame.
	ratios []RelayRatio
	at     time.Time
	fresh  bool
}

type refOutcome struct {
	at      time.Time
	dropped bool
}

// newRefWatch creates a standalone forwarding watch (not
// attached to a table); the owner calls Observe itself.
func newRefWatch(cfg ForwardingConfig) *refWatch {
	return &refWatch{
		cfg:      cfg,
		pending:  make(map[packet.NodeID]map[pendKey]time.Time),
		outcomes: make(map[packet.NodeID][]refOutcome),
		roots:    make(map[packet.NodeID]bool),
		dropped:  make(map[packet.NodeID]map[uint16]bool),
	}
}

// Observe implements Tracker. Frames without a CTP layer return before
// the lock.
func (w *refWatch) Observe(c *packet.Captured) {
	if b, ok := c.Layer("ctp-beacon").(*ctp.Beacon); ok {
		if b.ETX == 0 {
			w.mu.Lock()
			w.roots[c.Transmitter] = true
			w.mu.Unlock()
		}
		return
	}
	d, ok := c.Layer("ctp-data").(*ctp.Data)
	if !ok {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.expire(c.Time)

	key := pendKey{origin: d.Origin, seq: d.SeqNo}
	// The transmitter just forwarded (or originated) this frame; any
	// pending expectation on it is satisfied.
	if m := w.pending[c.Transmitter]; m != nil {
		if _, waiting := m[key]; waiting {
			delete(m, key)
			w.record(c.Transmitter, refOutcome{at: c.Time, dropped: false})
		}
	}
	// The frame is now in the hands of its link-layer destination; if
	// that node is a relay (not a collection root, not broadcast), it
	// must forward in turn — register the expectation even for frames
	// that themselves satisfied one, so every hop of a chain is
	// monitored.
	if c.Dst != packet.Broadcast && c.Dst != "" && !w.roots[c.Dst] {
		if w.pending[c.Dst] == nil {
			w.pending[c.Dst] = make(map[pendKey]time.Time)
		}
		w.pending[c.Dst][key] = c.Time.Add(w.cfg.Timeout)
	}
}

// expire converts overdue expectations into drop outcomes.
func (w *refWatch) expire(now time.Time) {
	for relay, m := range w.pending {
		for key, deadline := range m {
			if now.After(deadline) {
				delete(m, key)
				w.record(relay, refOutcome{at: now, dropped: true})
				if w.dropped[relay] == nil {
					w.dropped[relay] = make(map[uint16]bool)
				}
				w.dropped[relay][key.origin] = true
			}
		}
	}
}

// record appends an outcome to a relay's window.
func (w *refWatch) record(relay packet.NodeID, o refOutcome) {
	if _, known := w.outcomes[relay]; !known {
		i, _ := slices.BinarySearch(w.relays, relay)
		w.relays = slices.Insert(w.relays, i, relay)
	}
	w.outcomes[relay] = append(w.outcomes[relay], o)
	w.fresh = false
}

// Ratios appends to buf[:0] the windowed drop ratio of every relay with
// at least MinSamples outcomes in the window ending at now, in relay
// identity order. It covers relays whose latest evidence is an expiry
// (a dropper never transmits again), which is why detectors poll it on
// every frame; in steady state a poll allocates nothing.
func (w *refWatch) Ratios(now time.Time, buf []RelayRatio) []RelayRatio {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.fresh || !now.Equal(w.at) {
		w.ratios = w.ratios[:0]
		for _, relay := range w.relays {
			evs := w.outcomes[relay]
			cut := 0
			for cut < len(evs) && now.Sub(evs[cut].at) > w.cfg.Window {
				cut++
			}
			evs = evs[cut:]
			w.outcomes[relay] = evs
			if len(evs) < w.cfg.MinSamples {
				continue
			}
			drops := 0
			for _, e := range evs {
				if e.dropped {
					drops++
				}
			}
			r := RelayRatio{Relay: relay, H: packet.HandleOf(relay), Origins: len(w.dropped[relay])}
			if len(evs) > 0 {
				r.Ratio = float64(drops) / float64(len(evs))
			}
			w.ratios = append(w.ratios, r)
		}
		w.at, w.fresh = now, true
	}
	return append(buf[:0], w.ratios...)
}

// DroppedOrigins returns, sorted, the origins the relay has dropped
// (the payload of SuspectBlackhole knowggets).
func (w *refWatch) DroppedOrigins(relay packet.NodeID) []uint16 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]uint16, 0, len(w.dropped[relay]))
	for o := range w.dropped[relay] {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}
