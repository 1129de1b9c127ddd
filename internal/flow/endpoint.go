package flow

import (
	"math"
	"sort"
	"sync"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
	"kalis/internal/proto/zigbee"
)

// This file holds the endpoint-level aggregate trackers: flow state
// keyed by victim, initiator or transmitter identity rather than by
// 5-tuple, serving the detection modules their traffic statistics in
// O(1) per packet. Trackers are acquired from a Table's registry
// (deduplicated by configuration and reference-counted, so e.g. the
// ICMP-flood and Smurf modules share one victim window updated once per
// packet; see Trackers for cross-shard sharing), or created standalone
// for direct-construction unit tests. All pruning runs on capture
// timestamps (simclock discipline).

// KindMask is a bitmask over packet.Kind values (the kind space is
// small and stable; see packet.Kind).
type KindMask uint64

// MaskOf builds a mask matching the given kinds.
func MaskOf(kinds ...packet.Kind) KindMask {
	var m KindMask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// Has reports whether the mask matches the kind.
func (m KindMask) Has(k packet.Kind) bool { return m&(1<<uint(k)) != 0 }

// Event is one observation in a victim window.
type Event struct {
	At   time.Time
	RSSI float64
	Src  packet.NodeID
}

// victimKey deduplicates victim windows by configuration.
type victimKey struct {
	mask   KindMask
	window time.Duration
}

// VictimWindow keeps, per destination, the sliding window of matching
// packets — the rate evidence behind the flood detectors. Storage is
// time-sorted and cap-bounded; windowing is applied read-side against
// the reader's own capture clock (see Observe), so per-packet cost is
// amortized O(1) on insert and O(log n) per threshold probe.
type VictimWindow struct {
	mask   KindMask
	window time.Duration

	mu    sync.Mutex
	byDst map[packet.NodeID][]Event

	handle
}

// NewVictimWindow creates a standalone victim window (not attached to a
// table); the owner calls Observe itself.
func NewVictimWindow(mask KindMask, window time.Duration) *VictimWindow {
	return &VictimWindow{mask: mask, window: window, byDst: make(map[packet.NodeID][]Event)}
}

// VictimWindow acquires the table's shared victim window for the given
// kind mask and window, creating it on first use. Release the handle
// when done (module Deactivate). Tables sharing a registry
// (Config.Trackers) return the same window.
func (t *Table) VictimWindow(mask KindMask, window time.Duration) *VictimWindow {
	return acquire(t.trk, victimKey{mask, window}, func() *VictimWindow { return NewVictimWindow(mask, window) })
}

// Observe implements Tracker.
func (w *VictimWindow) Observe(c *packet.Captured) {
	if !w.mask.Has(c.Kind) {
		return
	}
	w.mu.Lock()
	evs := w.byDst[c.Dst]
	// Concurrent shard workers deliver captures out of timestamp order,
	// and a shard that races ahead in an accelerated replay can be a
	// full episode past a laggard. Storage is therefore time-sorted and
	// cap-bounded, never time-pruned: pruning on insert against any
	// "current" time would destroy a slower shard's still-live window.
	// Readers count within their own [now-window, now] instead. The
	// backward scan is O(1) for in-order arrival and bounded by shard
	// lag otherwise.
	i := len(evs)
	for i > 0 && evs[i-1].At.After(c.Time) {
		i--
	}
	//lint:ignore hotalloc amortized growth of the map-stored per-victim slice, cap-bounded at maxVictimEvents
	evs = append(evs, Event{})
	copy(evs[i+1:], evs[i:])
	evs[i] = Event{At: c.Time, RSSI: c.RSSI, Src: c.Src}
	if len(evs) > maxVictimEvents {
		evs = evs[len(evs)-maxVictimEvents:]
	}
	w.byDst[c.Dst] = evs
	w.mu.Unlock()
}

// maxVictimEvents bounds retained events per destination (storage is
// not time-pruned; see Observe). 1024 comfortably exceeds any
// per-window flood threshold while capping memory per victim.
const maxVictimEvents = 1024

// windowSpan returns the half-open index range [lo, hi) of evs (sorted
// by At) falling inside [now-window, now] — events from shards that
// have raced ahead of the reader are excluded just as events the
// reader has outlived are.
func windowSpan(evs []Event, window time.Duration, now time.Time) (int, int) {
	oldest := now.Add(-window)
	lo := sort.Search(len(evs), func(i int) bool { return !evs[i].At.Before(oldest) })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].At.After(now) })
	return lo, hi
}

// Len returns how many events fall inside the window ending at now for
// a destination, without copying — the cheap threshold probe.
func (w *VictimWindow) Len(dst packet.NodeID, now time.Time) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	lo, hi := windowSpan(w.byDst[dst], w.window, now)
	return hi - lo
}

// Events returns a copy of the destination's events inside the window
// ending at now (called on the cold, threshold-crossed branch only).
func (w *VictimWindow) Events(dst packet.NodeID, now time.Time) []Event {
	w.mu.Lock()
	defer w.mu.Unlock()
	lo, hi := windowSpan(w.byDst[dst], w.window, now)
	out := make([]Event, hi-lo)
	copy(out, w.byDst[dst][lo:hi])
	return out
}

// handshakeKey deduplicates handshake trackers by completion window.
type handshakeKey time.Duration

// TCPHandshakes tracks open TCP handshakes per initiator→responder pair
// and handshake-completing pure ACKs per responder — the evidence that
// separates a legitimate connection burst from a spoofed SYN flood.
type TCPHandshakes struct {
	window time.Duration

	mu      sync.Mutex
	pending map[hsKey]bool
	comps   map[packet.NodeID][]time.Time

	handle
}

// hsKey identifies a half-open handshake by its endpoint pair. A
// struct key keeps the per-SYN map update allocation-free; the string
// concatenation it replaces showed up directly in the per-packet
// profile (hotalloc).
type hsKey struct {
	src, dst packet.NodeID
}

// NewTCPHandshakes creates a standalone handshake tracker.
func NewTCPHandshakes(window time.Duration) *TCPHandshakes {
	return &TCPHandshakes{
		window:  window,
		pending: make(map[hsKey]bool),
		comps:   make(map[packet.NodeID][]time.Time),
	}
}

// Handshakes acquires the table's shared handshake tracker for the
// given completion window.
func (t *Table) Handshakes(window time.Duration) *TCPHandshakes {
	return acquire(t.trk, handshakeKey(window), func() *TCPHandshakes { return NewTCPHandshakes(window) })
}

// Observe implements Tracker.
func (h *TCPHandshakes) Observe(c *packet.Captured) {
	switch c.Kind {
	case packet.KindTCPSYN:
		h.mu.Lock()
		h.pending[hsKey{src: c.Src, dst: c.Dst}] = true
		h.mu.Unlock()
	case packet.KindTCPACK:
		// A pure ACK from an initiator with an open handshake is the
		// handshake-completing third packet — legitimate bursts produce
		// these, spoofed floods cannot.
		seg, ok := c.Layer("tcp").(*tcp.Segment)
		if !ok || !seg.IsACK() || len(seg.Payload) != 0 {
			return
		}
		key := hsKey{src: c.Src, dst: c.Dst}
		h.mu.Lock()
		if h.pending[key] {
			delete(h.pending, key)
			// Time-ordered insert, as in VictimWindow.Observe: ACKs
			// from initiators on different shards can arrive out of
			// timestamp order and Completions prunes from the front.
			comps := h.comps[c.Dst]
			i := len(comps)
			for i > 0 && comps[i-1].After(c.Time) {
				i--
			}
			//lint:ignore hotalloc amortized growth of the map-stored per-responder slice, cap-bounded at maxVictimEvents
			comps = append(comps, time.Time{})
			copy(comps[i+1:], comps[i:])
			comps[i] = c.Time
			if len(comps) > maxVictimEvents {
				comps = comps[len(comps)-maxVictimEvents:]
			}
			h.comps[c.Dst] = comps
		}
		h.mu.Unlock()
	}
}

// Completions returns how many handshakes completed towards dst within
// the window ending at now. As with VictimWindow, storage is sorted
// and cap-bounded rather than pruned, so slower shards' reads stay
// correct while others race ahead.
func (h *TCPHandshakes) Completions(dst packet.NodeID, now time.Time) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	comps := h.comps[dst]
	oldest := now.Add(-h.window)
	lo := sort.Search(len(comps), func(i int) bool { return !comps[i].Before(oldest) })
	hi := sort.Search(len(comps), func(i int) bool { return comps[i].After(now) })
	return hi - lo
}

// identityKey deduplicates identity-stats trackers by configuration.
type identityKey struct {
	alpha  float64
	medium packet.Medium
}

// IdentityStats keeps per-transmitter smoothed RSSI fingerprints with
// first-seen times — the sybil module's evidence that a group of
// recently-appeared identities shares one physical position.
type IdentityStats struct {
	alpha  float64
	medium packet.Medium

	mu    sync.Mutex
	start time.Time
	ids   map[packet.NodeID]*identStat

	handle
}

// identStat is one identity's fingerprint state, held in a single map
// so the per-packet update costs one hash lookup.
type identStat struct {
	ewma      float64
	frames    int
	firstSeen time.Time
}

// NewIdentityStats creates a standalone identity tracker.
func NewIdentityStats(alpha float64, medium packet.Medium) *IdentityStats {
	return &IdentityStats{
		alpha:  alpha,
		medium: medium,
		ids:    make(map[packet.NodeID]*identStat),
	}
}

// IdentityStats acquires the table's shared identity tracker for the
// given EWMA smoothing factor and medium.
func (t *Table) IdentityStats(alpha float64, medium packet.Medium) *IdentityStats {
	return acquire(t.trk, identityKey{alpha, medium}, func() *IdentityStats { return NewIdentityStats(alpha, medium) })
}

// Observe implements Tracker.
func (s *IdentityStats) Observe(c *packet.Captured) {
	if c.Medium != s.medium || c.Transmitter == "" {
		return
	}
	s.mu.Lock()
	if s.start.IsZero() {
		s.start = c.Time
	}
	st := s.ids[c.Transmitter]
	if st == nil {
		//lint:ignore hotalloc one allocation per newly observed identity, amortized across its frames
		s.ids[c.Transmitter] = &identStat{ewma: c.RSSI, frames: 1, firstSeen: c.Time}
	} else {
		st.ewma += s.alpha * (c.RSSI - st.ewma)
		st.frames++
	}
	s.mu.Unlock()
}

// Cluster collects the recently-appeared identities (first seen more
// than warmup after the tracker's first packet, with at least minFrames
// frames) whose fingerprints lie within tol dB of the given identity's
// fingerprint. It returns nil when the center identity itself does not
// qualify.
func (s *IdentityStats) Cluster(id packet.NodeID, tol float64, minFrames int, warmup time.Duration) []packet.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	center := s.ids[id]
	if center == nil || !s.isNewLocked(center, warmup) || center.frames < minFrames {
		return nil
	}
	var cluster []packet.NodeID
	for other, st := range s.ids {
		if !s.isNewLocked(st, warmup) || st.frames < minFrames {
			continue
		}
		if math.Abs(st.ewma-center.ewma) <= tol {
			//lint:ignore hotalloc the cluster materializes only when tolerance-close new identities exist — the Sybil-suspicion case, not the steady state
			cluster = append(cluster, other)
		}
	}
	sort.Slice(cluster, func(i, j int) bool { return cluster[i] < cluster[j] })
	return cluster
}

// isNewLocked reports whether the identity appeared after the warmup
// period (pre-existing identities are legitimate even if co-located).
func (s *IdentityStats) isNewLocked(st *identStat, warmup time.Duration) bool {
	return st.firstSeen.Sub(s.start) > warmup
}

// MotionConfig tunes an IdentityMotion tracker (and is its dedup key).
type MotionConfig struct {
	// Medium restricts observation to one capture medium.
	Medium packet.Medium
	// Threshold is the RSSI jump threshold in dB.
	Threshold float64
	// Window prunes jump/flip/wobble evidence.
	Window time.Duration
	// Alpha is the RSSI EWMA smoothing factor.
	Alpha float64
	// MinSamples is the per-identity sample count before deviations
	// count as evidence.
	MinSamples int
}

// motionTrack is per-identity motion state.
type motionTrack struct {
	ewma    float64
	samples int
	lastSeq uint8
	seqInit bool
	jumps   []time.Time // RSSI jump timestamps (window-pruned)
	flips   []time.Time // seq regression timestamps (window-pruned)
	wobbles []time.Time // sub-jump RSSI deviations (baseline health)
}

// IdentityMotion tracks per-transmitter RSSI jumps and sequence-counter
// conflicts — the replication modules' evidence that one identity is
// transmitted from two places (static networks) or originated by two
// devices at once (mobile networks).
type IdentityMotion struct {
	cfg MotionConfig

	mu     sync.Mutex
	tracks map[packet.NodeID]*motionTrack

	handle
}

// MotionSnapshot is the race-safe read of one identity's current
// evidence.
type MotionSnapshot struct {
	// Jumps and Flips count the in-window RSSI jumps and sequence
	// regressions.
	Jumps, Flips int
	// LastJump and LastFlip timestamp the most recent evidence (zero
	// when none) — detectors alert only when the triggering packet
	// itself is fresh evidence.
	LastJump, LastFlip time.Time
}

// NewIdentityMotion creates a standalone motion tracker.
func NewIdentityMotion(cfg MotionConfig) *IdentityMotion {
	return &IdentityMotion{cfg: cfg, tracks: make(map[packet.NodeID]*motionTrack)}
}

// Motion acquires the table's shared motion tracker for the given
// configuration (the static and mobile replication modules share one
// tracker when configured alike, so the state updates once per packet).
func (t *Table) Motion(cfg MotionConfig) *IdentityMotion {
	return acquire(t.trk, cfg, func() *IdentityMotion { return NewIdentityMotion(cfg) })
}

// Observe implements Tracker.
func (m *IdentityMotion) Observe(c *packet.Captured) {
	if c.Medium != m.cfg.Medium || c.Transmitter == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := c.Transmitter
	t := m.tracks[id]
	if t == nil {
		//lint:ignore hotalloc one allocation per newly tracked identity, amortized across its frames
		t = &motionTrack{ewma: c.RSSI, samples: 1}
		m.tracks[id] = t
		if seq, _, ok := seqInfo(c); ok {
			t.lastSeq = seq
			t.seqInit = true
		}
		return
	}
	t.samples++
	dev := math.Abs(c.RSSI - t.ewma)
	if t.samples > m.cfg.MinSamples && dev > m.cfg.Threshold {
		t.jumps = append(t.jumps, c.Time)
		// Re-anchor on the new position so alternation keeps counting.
		t.ewma = c.RSSI
	} else {
		if t.samples > m.cfg.MinSamples && dev > m.cfg.Threshold/2 {
			// Sub-jump deviation: not replica-grade, but evidence the
			// RSSI baseline is in motion.
			t.wobbles = append(t.wobbles, c.Time)
		}
		t.ewma += m.cfg.Alpha * (c.RSSI - t.ewma)
	}
	if seq, trusted, ok := seqInfo(c); ok && trusted {
		if t.seqInit {
			// A regression (non-monotonic, not a wraparound) means two
			// counters are interleaved under one identity.
			diff := int8(seq - t.lastSeq)
			if diff <= 0 && seq != t.lastSeq {
				t.flips = append(t.flips, c.Time)
			}
		}
		t.lastSeq = seq
		t.seqInit = true
	}
	if len(t.jumps) > 0 {
		t.jumps = pruneTimes(t.jumps, c.Time, m.cfg.Window)
	}
	if len(t.flips) > 0 {
		t.flips = pruneTimes(t.flips, c.Time, m.cfg.Window)
	}
	if len(t.wobbles) > 0 {
		t.wobbles = pruneTimes(t.wobbles, c.Time, m.cfg.Window)
	}
}

// Snapshot returns the identity's current evidence (zero value when the
// identity is unknown).
func (m *IdentityMotion) Snapshot(id packet.NodeID) MotionSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tracks[id]
	if t == nil {
		return MotionSnapshot{}
	}
	s := MotionSnapshot{Jumps: len(t.jumps), Flips: len(t.flips)}
	if s.Jumps > 0 {
		s.LastJump = t.jumps[s.Jumps-1]
	}
	if s.Flips > 0 {
		s.LastFlip = t.flips[s.Flips-1]
	}
	return s
}

// JumpyFraction reports the fraction of identities whose RSSI baseline
// is currently unstable (jumps or sub-jump wobbles) — the baseline-
// health veto of the static replication technique: when the whole
// network is in motion, RSSI stability means nothing.
func (m *IdentityMotion) JumpyFraction() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.tracks) == 0 {
		return 0
	}
	jumpy := 0
	for _, t := range m.tracks {
		if len(t.jumps) > 0 || len(t.wobbles) > 0 {
			jumpy++
		}
	}
	return float64(jumpy) / float64(len(m.tracks))
}

func pruneTimes(ts []time.Time, now time.Time, window time.Duration) []time.Time {
	cut := 0
	for cut < len(ts) && now.Sub(ts[cut]) > window {
		cut++
	}
	return ts[cut:]
}

// seqInfo extracts the most end-to-end sequence counter the capture
// carries — CTP data sequence numbers, then ZigBee NWK sequence
// numbers, then the per-hop 802.15.4 MAC sequence (all keyed by
// transmitter identity, so per-hop counters are still per-identity
// monotonic) — in a single pass over the layer stack. trusted reports
// whether the counter belongs to the transmitter identity itself:
// forwarded frames carry the *origin's* counter, which legitimately
// interleaves several counters under one relaying transmitter — those
// must not count as flips.
func seqInfo(c *packet.Captured) (seq uint8, trusted, ok bool) {
	if d, ok := c.Layer("ctp-data").(*ctp.Data); ok {
		return d.SeqNo, c.Src == c.Transmitter, true
	}
	if n, ok := c.Layer("zigbee").(*zigbee.Frame); ok {
		return n.Seq, stack.ShortID(n.Src) == c.Transmitter, true
	}
	if f, ok := c.Layer("ieee802154").(*ieee802154.Frame); ok {
		return f.Seq, true, true
	}
	return 0, false, false
}
