package flow

import (
	"math"
	"slices"
	"sort"
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
// packet; see Trackers), or created standalone for direct-construction
// unit tests. Like their table they belong to its owner's goroutine
// and take no lock. All pruning runs on capture timestamps (simclock
// discipline).

// The endpoint trackers, and the forwarding watch beside them.
var (
	_ Tracker = (*VictimWindow)(nil)
	_ Tracker = (*TCPHandshakes)(nil)
	_ Tracker = (*IdentityStats)(nil)
	_ Tracker = (*IdentityMotion)(nil)
	_ Tracker = (*ForwardingWatch)(nil)
)

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
	// At is the capture time in nanoseconds (Captured.Nanos).
	At   int64
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
// the reader's capture clock (see Observe), so per-packet cost is
// amortized O(1) on insert and O(log n) per threshold probe.
type VictimWindow struct {
	mask   KindMask
	window int64

	byDst packet.ByHandle[[]Event]

	handle
}

// NewVictimWindow creates a standalone victim window (not attached to a
// table); the owner calls Observe itself.
func NewVictimWindow(mask KindMask, window time.Duration) *VictimWindow {
	return &VictimWindow{mask: mask, window: int64(window)}
}

// VictimWindow acquires the table's victim window for the given kind
// mask and window, creating it on first use. Release the handle when
// done (module Deactivate).
func (t *Table) VictimWindow(mask KindMask, window time.Duration) *VictimWindow {
	return acquire(t.trk, victimKey{mask, window}, func() *VictimWindow { return NewVictimWindow(mask, window) })
}

// Observe implements Tracker.
func (w *VictimWindow) Observe(c *packet.Captured, now int64) {
	if !w.mask.Has(c.Kind) || c.DstH == 0 {
		return
	}
	evs, _ := w.byDst.Put(c.DstH)
	// Storage is time-sorted and cap-bounded, never time-pruned: a
	// capture stamped earlier than the last one (a replayed or merged
	// trace) is inserted in place, and readers count within their own
	// [now-window, now]. The backward scan is O(1) for in-order arrival.
	i := len(*evs)
	for i > 0 && (*evs)[i-1].At > now {
		i--
	}
	//lint:ignore hotalloc amortized growth of the per-victim slice, cap-bounded at maxVictimEvents
	s := append(*evs, Event{})
	copy(s[i+1:], s[i:])
	s[i] = Event{At: now, RSSI: c.RSSI, Src: c.Src}
	if len(s) > maxVictimEvents {
		s = s[len(s)-maxVictimEvents:]
	}
	*evs = s
}

// maxVictimEvents bounds retained events per destination (storage is
// not time-pruned; see Observe). 1024 comfortably exceeds any
// per-window flood threshold while capping memory per victim.
const maxVictimEvents = 1024

// windowSpan returns the half-open index range [lo, hi) of evs (sorted
// by At) falling inside [now-window, now] — events stamped after the
// reader's now are excluded just as events the reader has outlived are.
func windowSpan(evs []Event, window, now int64) (int, int) {
	oldest := now - window
	lo := sort.Search(len(evs), func(i int) bool { return evs[i].At >= oldest })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].At > now })
	return lo, hi
}

// Len returns how many events fall inside the window ending at now
// (capture nanoseconds) for a destination, without copying — the cheap
// threshold probe.
func (w *VictimWindow) Len(dst packet.Handle, now int64) int {
	evs := w.byDst.Get(dst)
	if evs == nil {
		return 0
	}
	lo, hi := windowSpan(*evs, w.window, now)
	return hi - lo
}

// Events appends the destination's events inside the window ending at
// now to buf, oldest first, and returns the extended slice (called on
// the cold, threshold-crossed branch only; a caller that keeps buf
// copies nothing but the events).
func (w *VictimWindow) Events(buf []Event, dst packet.Handle, now int64) []Event {
	evs := w.byDst.Get(dst)
	if evs == nil {
		return buf
	}
	lo, hi := windowSpan(*evs, w.window, now)
	return append(buf, (*evs)[lo:hi]...)
}

// handshakeKey deduplicates handshake trackers by completion window.
type handshakeKey time.Duration

// TCPHandshakes tracks open TCP handshakes per initiator→responder pair
// and handshake-completing pure ACKs per responder — the evidence that
// separates a legitimate connection burst from a spoofed SYN flood.
type TCPHandshakes struct {
	window int64

	pending map[hsKey]bool
	// sweepAt is the pending-map size at which handshakes of evicted
	// identities are dropped: a spoofed SYN flood opens one per source
	// and never completes it.
	sweepAt int
	comps   packet.ByHandle[[]int64]

	handle
}

// minPendingSweep is the pending-map size below which it is never
// swept.
const minPendingSweep = 1024

// hsKey identifies a half-open handshake by its endpoints' identity
// handles: a fixed-size key, so the per-SYN map update neither
// allocates nor hashes a string.
type hsKey struct {
	src, dst packet.Handle
}

// NewTCPHandshakes creates a standalone handshake tracker.
func NewTCPHandshakes(window time.Duration) *TCPHandshakes {
	return &TCPHandshakes{window: int64(window), pending: make(map[hsKey]bool), sweepAt: minPendingSweep}
}

// Handshakes acquires the table's handshake tracker for the given
// completion window.
func (t *Table) Handshakes(window time.Duration) *TCPHandshakes {
	return acquire(t.trk, handshakeKey(window), func() *TCPHandshakes { return NewTCPHandshakes(window) })
}

// Observe implements Tracker.
func (h *TCPHandshakes) Observe(c *packet.Captured, now int64) {
	switch c.Kind {
	case packet.KindTCPSYN:
		h.pending[hsKey{src: c.SrcH, dst: c.DstH}] = true
		if len(h.pending) >= h.sweepAt {
			for k := range h.pending {
				if !packet.Live(k.src) || !packet.Live(k.dst) {
					delete(h.pending, k)
				}
			}
			h.sweepAt = max(minPendingSweep, 2*len(h.pending))
		}
	case packet.KindTCPACK:
		// A pure ACK from an initiator with an open handshake is the
		// handshake-completing third packet — legitimate bursts produce
		// these, spoofed floods cannot.
		seg, ok := c.Layer("tcp").(*tcp.Segment)
		if !ok || !seg.IsACK() || len(seg.Payload) != 0 {
			return
		}
		key := hsKey{src: c.SrcH, dst: c.DstH}
		if h.pending[key] {
			delete(h.pending, key)
			if c.DstH != 0 {
				// Time-ordered insert, as in VictimWindow.Observe:
				// Completions counts a window.
				comps, _ := h.comps.Put(c.DstH)
				i := len(*comps)
				for i > 0 && (*comps)[i-1] > now {
					i--
				}
				//lint:ignore hotalloc amortized growth of the per-responder slice, cap-bounded at maxVictimEvents
				s := append(*comps, 0)
				copy(s[i+1:], s[i:])
				s[i] = now
				if len(s) > maxVictimEvents {
					s = s[len(s)-maxVictimEvents:]
				}
				*comps = s
			}
		}
	}
}

// Completions returns how many handshakes completed towards dst within
// the window ending at now (capture nanoseconds). As with
// VictimWindow, storage is sorted and cap-bounded rather than pruned.
func (h *TCPHandshakes) Completions(dst packet.Handle, now int64) int {
	p := h.comps.Get(dst)
	if p == nil {
		return 0
	}
	comps := *p
	oldest := now - h.window
	lo := sort.Search(len(comps), func(i int) bool { return comps[i] >= oldest })
	hi := sort.Search(len(comps), func(i int) bool { return comps[i] > now })
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

	started bool
	start   int64
	ids     packet.ByHandle[identStat]

	handle
}

// identStat is one identity's fingerprint state.
type identStat struct {
	id        packet.NodeID
	ewma      float64
	frames    int
	firstSeen int64
}

// NewIdentityStats creates a standalone identity tracker.
func NewIdentityStats(alpha float64, medium packet.Medium) *IdentityStats {
	return &IdentityStats{alpha: alpha, medium: medium}
}

// IdentityStats acquires the table's identity tracker for the given
// EWMA smoothing factor and medium.
func (t *Table) IdentityStats(alpha float64, medium packet.Medium) *IdentityStats {
	return acquire(t.trk, identityKey{alpha, medium}, func() *IdentityStats { return NewIdentityStats(alpha, medium) })
}

// Observe implements Tracker.
func (s *IdentityStats) Observe(c *packet.Captured, now int64) {
	if c.Medium != s.medium || c.TransmitterH == 0 {
		return
	}
	if !s.started {
		s.started, s.start = true, now
	}
	if st, fresh := s.ids.Put(c.TransmitterH); fresh {
		*st = identStat{id: c.Transmitter, ewma: c.RSSI, frames: 1, firstSeen: now}
	} else {
		st.ewma += s.alpha * (c.RSSI - st.ewma)
		st.frames++
	}
}

// Cluster collects the recently-appeared identities (first seen more
// than warmup after the tracker's first packet, with at least minFrames
// frames) whose fingerprints lie within tol dB of the given identity's
// fingerprint, sorted. It returns nil when the center identity itself
// does not qualify. Identities evicted from the identity table are left
// out.
func (s *IdentityStats) Cluster(id packet.Handle, tol float64, minFrames int, warmup time.Duration) []packet.NodeID {
	center := s.ids.Get(id)
	if center == nil || !s.isNew(center, warmup) || center.frames < minFrames {
		return nil
	}
	var cluster []packet.NodeID
	s.ids.Range(func(_ packet.Handle, live bool, st *identStat) {
		if live && s.isNew(st, warmup) && st.frames >= minFrames && math.Abs(st.ewma-center.ewma) <= tol {
			//lint:ignore hotalloc the cluster materializes only when tolerance-close new identities exist — the Sybil-suspicion case, not the steady state
			cluster = append(cluster, st.id)
		}
	})
	slices.Sort(cluster)
	return cluster
}

// isNew reports whether the identity appeared after the warmup period
// (pre-existing identities are legitimate even if co-located).
func (s *IdentityStats) isNew(st *identStat, warmup time.Duration) bool {
	return st.firstSeen-s.start > int64(warmup)
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

// motionTrack is per-identity motion state; evidence times are capture
// nanoseconds.
type motionTrack struct {
	ewma    float64
	samples int
	lastSeq uint8
	seqInit bool
	jumps   []int64 // RSSI jump times (window-pruned)
	flips   []int64 // seq regression times (window-pruned)
	wobbles []int64 // sub-jump RSSI deviations (baseline health)
}

// IdentityMotion tracks per-transmitter RSSI jumps and sequence-counter
// conflicts — the replication modules' evidence that one identity is
// transmitted from two places (static networks) or originated by two
// devices at once (mobile networks).
type IdentityMotion struct {
	cfg MotionConfig

	tracks packet.ByHandle[motionTrack]

	handle
}

// MotionSnapshot is one identity's current evidence.
type MotionSnapshot struct {
	// Jumps and Flips count the in-window RSSI jumps and sequence
	// regressions.
	Jumps, Flips int
	// LastJump and LastFlip are the capture nanoseconds of the most
	// recent evidence (0 when none) — detectors alert only when the
	// triggering packet itself is fresh evidence.
	LastJump, LastFlip int64
}

// NewIdentityMotion creates a standalone motion tracker.
func NewIdentityMotion(cfg MotionConfig) *IdentityMotion {
	return &IdentityMotion{cfg: cfg}
}

// Motion acquires the table's motion tracker for the given
// configuration (the static and mobile replication modules share one
// tracker when configured alike, so the state updates once per packet).
func (t *Table) Motion(cfg MotionConfig) *IdentityMotion {
	return acquire(t.trk, cfg, func() *IdentityMotion { return NewIdentityMotion(cfg) })
}

// Observe implements Tracker.
func (m *IdentityMotion) Observe(c *packet.Captured, now int64) {
	if c.Medium != m.cfg.Medium || c.TransmitterH == 0 {
		return
	}
	t, fresh := m.tracks.Put(c.TransmitterH)
	if fresh {
		t.ewma, t.samples = c.RSSI, 1
		if seq, _, ok := seqInfo(c); ok {
			t.lastSeq = seq
			t.seqInit = true
		}
		return
	}
	t.samples++
	dev := math.Abs(c.RSSI - t.ewma)
	if t.samples > m.cfg.MinSamples && dev > m.cfg.Threshold {
		t.jumps = append(t.jumps, now)
		// Re-anchor on the new position so alternation keeps counting.
		t.ewma = c.RSSI
	} else {
		if t.samples > m.cfg.MinSamples && dev > m.cfg.Threshold/2 {
			// Sub-jump deviation: not replica-grade, but evidence the
			// RSSI baseline is in motion.
			t.wobbles = append(t.wobbles, now)
		}
		t.ewma += m.cfg.Alpha * (c.RSSI - t.ewma)
	}
	if seq, trusted, ok := seqInfo(c); ok && trusted {
		if t.seqInit {
			// A regression (non-monotonic, not a wraparound) means two
			// counters are interleaved under one identity.
			diff := int8(seq - t.lastSeq)
			if diff <= 0 && seq != t.lastSeq {
				t.flips = append(t.flips, now)
			}
		}
		t.lastSeq = seq
		t.seqInit = true
	}
	window := int64(m.cfg.Window)
	if len(t.jumps) > 0 {
		t.jumps = pruneTimes(t.jumps, now, window)
	}
	if len(t.flips) > 0 {
		t.flips = pruneTimes(t.flips, now, window)
	}
	if len(t.wobbles) > 0 {
		t.wobbles = pruneTimes(t.wobbles, now, window)
	}
}

// Snapshot returns the identity's current evidence (zero value when the
// identity is unknown).
func (m *IdentityMotion) Snapshot(id packet.Handle) MotionSnapshot {
	t := m.tracks.Get(id)
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
// network is in motion, RSSI stability means nothing. Identities
// evicted from the identity table do not count.
func (m *IdentityMotion) JumpyFraction() float64 {
	tracked, jumpy := 0, 0
	m.tracks.Range(func(_ packet.Handle, live bool, t *motionTrack) {
		if !live {
			return
		}
		tracked++
		if len(t.jumps) > 0 || len(t.wobbles) > 0 {
			jumpy++
		}
	})
	if tracked == 0 {
		return 0
	}
	return float64(jumpy) / float64(tracked)
}

// pruneTimes drops the times more than window before now and moves the
// rest to the front of ts, so the evidence queue keeps its capacity: a
// queue sliced from the front instead loses capacity with every cut,
// and its next append reallocates.
func pruneTimes(ts []int64, now, window int64) []int64 {
	cut := 0
	for cut < len(ts) && now-ts[cut] > window {
		cut++
	}
	if cut == 0 {
		return ts
	}
	return ts[:copy(ts, ts[cut:])]
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
