package sensing

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// MobilityName is the registry name of the Mobility Awareness module.
const MobilityName = "MobilityAwarenessModule"

// Mobility is the Mobility Awareness sensing module (§V): it "uses a
// simple approach that detects mobility when any node's signal strength
// changes more than a certain threshold". It maintains a smoothed
// (EWMA) signal strength per monitored entity and publishes the
// network-wide Mobility knowgget: true while threshold-exceeding RSSI
// changes are being observed, reverting to false after a quiet period
// with stable signal strengths.
//
// The exact per-frame EWMA is the module's own state. The Knowledge
// Base holds knowledge, so a SignalStrength knowgget is written on
// observable change only: when an entity is first seen, and whenever
// its EWMA has moved threshold/4 (1 dB by default) or more from the
// value last published. That quantum is half the finest tolerance any
// reader applies — peer corroboration below reads threshold/2, the
// detectors' fingerprint match 3 dB — so a slow drift is published in
// steps no reader can take for a jump, and a published value is never
// more than a quantum stale. A frame inside the quantum costs no
// formatting, no key, no KB lock, no version for peers to pull, no
// journal record and no fan-out.
//
// With the "collective" parameter enabled, SignalStrength knowggets are
// shared with peer Kalis nodes, and the module implements the paper's
// §IV-B3 correlation example: "being aware that other Kalis nodes are
// noticing changes in signal strength for specific devices can enable
// the local Kalis node to correlate such changes with those experienced
// locally and detect mobility in the network". A local sub-threshold
// deviation that coincides with a peer-observed change for the same
// entity is promoted to a mobility signal.
type Mobility struct {
	ctx *module.Context

	// threshold is the RSSI deviation (dB) that signals movement.
	threshold float64
	// quiet is how long signal strengths must stay stable before the
	// network is declared static again.
	quiet time.Duration
	// alpha is the EWMA smoothing factor.
	alpha float64
	// minSamples is the per-entity sample count before deviations are
	// trusted (lets the EWMA settle).
	minSamples int
	// collective marks SignalStrength knowggets for peer sharing.
	collective bool

	// signals are found by the transmitter's identity handle.
	signals  packet.ByHandle[signal]
	moved    bool  // a movement was ever observed
	lastMove int64 // capture nanoseconds of the last one
	declared bool
	mobile   bool

	// remote mirrors peer-observed signal strengths per entity; a peer
	// change flags the entity for cross-node corroboration.
	remote  map[packet.NodeID]remoteSignal
	localID string
}

// signal is what the module keeps per transmitter.
type signal struct {
	ewma      float64 // smoothed RSSI, updated on every frame
	samples   int
	published float64 // the EWMA as last written to the Knowledge Base
	// entry is the transmitter's SignalStrength knowgget, keyed once.
	entry knowledge.Entry
}

// remoteSignal is the last peer-reported signal strength for an entity.
type remoteSignal struct {
	value   float64
	changed bool // a threshold/2 change since the previous report
}

var (
	_ module.Module           = (*Mobility)(nil)
	_ module.KnowledgeHandler = (*Mobility)(nil)
)

// NewMobility creates the module. Parameters: "threshold" (dB, default
// 4), "quiet" (duration, default 12s), "collective" (bool, default
// false: share SignalStrength knowggets with peer Kalis nodes).
func NewMobility(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&Mobility{
		threshold:  p.Float("threshold", 4),
		quiet:      p.Duration("quiet", 12*time.Second),
		alpha:      0.3,
		minSamples: 4,
		collective: p.Bool("collective", false),
	})
}

// Name implements module.Module.
func (m *Mobility) Name() string { return MobilityName }

// Kind implements module.Module.
func (m *Mobility) Kind() module.Kind { return module.KindSensing }

// WatchLabels implements module.Module.
func (m *Mobility) WatchLabels() []string { return []string{knowledge.LabelMobility} }

// Required implements module.Module: if mobility is statically known
// ("the network is static and will always remain so", §IV-B3) there is
// nothing to sense.
func (m *Mobility) Required(kb *knowledge.Base) bool {
	return !kb.IsStatic(knowledge.LabelMobility)
}

// Activate implements module.Module.
func (m *Mobility) Activate(ctx *module.Context) {
	m.ctx = ctx
	m.signals.Reset()
	m.moved, m.lastMove = false, 0
	m.declared = false
	m.mobile = false
	m.remote = make(map[packet.NodeID]remoteSignal)
	m.localID = ctx.KB.LocalID()
}

// KnowledgeLabels implements module.KnowledgeHandler: with "collective"
// on, the signal strengths peers observe.
func (m *Mobility) KnowledgeLabels() []string {
	if !m.collective {
		return nil
	}
	return []string{knowledge.LabelSignalStrength}
}

// HandleKnowledge implements module.KnowledgeHandler: it mirrors
// peer-observed signal strengths and marks entities whose strength
// changed at a peer.
func (m *Mobility) HandleKnowledge(kg knowledge.Knowgget) {
	if kg.Creator == m.localID || kg.Entity == "" {
		return
	}
	v, err := strconv.ParseFloat(kg.Value, 64)
	if err != nil {
		return
	}
	id := packet.NodeID(kg.Entity)
	prev, seen := m.remote[id]
	changed := seen && math.Abs(v-prev.value) > m.threshold/2
	m.remote[id] = remoteSignal{value: v, changed: changed || prev.changed}
}

// Deactivate implements module.Module.
func (m *Mobility) Deactivate() { m.ctx = nil }

// HandlePacket implements module.Module.
func (m *Mobility) HandlePacket(c *packet.Captured) {
	if c.TransmitterH == 0 || c.RSSI == 0 {
		return
	}
	kb := m.ctx.KB

	sig, fresh := m.signals.Put(c.TransmitterH)
	if fresh {
		*sig = signal{ewma: c.RSSI, samples: 1, published: c.RSSI,
			entry: kb.Entry(knowledge.LabelSignalStrength, string(c.Transmitter), m.collective)}
		m.putSignal(sig, c.RSSI)
		return
	}
	dev := math.Abs(c.RSSI - sig.ewma)
	sig.samples++
	sig.ewma += m.alpha * (c.RSSI - sig.ewma)
	if math.Abs(sig.ewma-sig.published) >= m.threshold/4 {
		sig.published = sig.ewma
		m.putSignal(sig, sig.ewma)
	}

	moved := dev > m.threshold
	if !moved && m.collective && dev > m.threshold/2 {
		// Cross-node corroboration (§IV-B3): a local sub-threshold
		// deviation plus a peer-observed change for the same entity is
		// strong evidence of genuine movement rather than shadowing.
		if r, ok := m.remote[c.Transmitter]; ok && r.changed {
			moved = true
			m.remote[c.Transmitter] = remoteSignal{value: r.value}
		}
	}
	now := c.Nanos()
	if sig.samples >= m.minSamples && moved {
		m.moved, m.lastMove = true, now
		if !m.declared || !m.mobile {
			m.declared = true
			m.mobile = true
			kb.PutBool(knowledge.LabelMobility, true)
		}
		// A node seen moving: its EWMA should track quickly. The jump
		// reaches the Knowledge Base with the next frame, like any other
		// change of a quantum or more.
		sig.ewma = c.RSSI
		return
	}
	// Declare static once signal strengths have been quiet long enough
	// (or immediately if no movement was ever observed and we have
	// sufficient history).
	quietLongEnough := m.moved && now-m.lastMove > int64(m.quiet)
	neverMoved := !m.moved && sig.samples >= m.minSamples*2
	if quietLongEnough && (!m.declared || m.mobile) {
		m.declared = true
		m.mobile = false
		kb.PutBool(knowledge.LabelMobility, false)
	} else if neverMoved && (!m.declared || m.mobile) {
		m.declared = true
		m.mobile = false
		// Absence-default: no movement in this instance's partition is
		// not proof of a static network — another shard may have seen
		// the node move.
		kb.PutBoolDefault(knowledge.LabelMobility, false)
	}
}

// putSignal publishes the transmitter's signal strength (shared with
// peers when collective).
func (m *Mobility) putSignal(sig *signal, v float64) {
	m.ctx.KB.PutEntry(&sig.entry, signalText(v))
}

// signalSpan bounds, in dB either side of 0, the SignalStrength values
// whose text signalTexts keeps.
const signalSpan = 200

// signalTexts holds the text of every SignalStrength value published so
// far within ±signalSpan dB, one slot per tenth of a dB. It is a fixed
// array shared by every node of the process, so neither traffic nor
// spoofed RSSI can grow it; a value outside the span is rendered afresh
// each time.
var signalTexts [2*signalSpan*10 + 1]atomic.Pointer[string]

// signalText returns strconv.FormatFloat(v, 'f', 1, 64), allocating
// only the first time a value within ±signalSpan dB is published: the
// value is rendered into a stack buffer and its text looked up by its
// tenths, and the lookup compares the whole text, so "-0.0" never
// passes for "0.0".
func signalText(v float64) string {
	var buf [32]byte
	b := strconv.AppendFloat(buf[:0], v, 'f', 1, 64)
	i, ok := signalSlot(b)
	if !ok {
		return string(b)
	}
	if s := signalTexts[i].Load(); s != nil && *s == string(b) {
		return *s
	}
	s := string(b)
	signalTexts[i].Store(&s)
	return s
}

// signalSlot maps a rendered value, [-]d{1,3}.d, to its slot in
// signalTexts; ok is false outside ±signalSpan dB and for NaN and ±Inf.
func signalSlot(b []byte) (slot int, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) < 3 || len(b) > 5 || b[len(b)-2] != '.' {
		return 0, false
	}
	tenths := 0
	for i, ch := range b {
		if i == len(b)-2 {
			continue // the decimal point
		}
		if ch < '0' || ch > '9' {
			return 0, false
		}
		tenths = tenths*10 + int(ch-'0')
	}
	if tenths > signalSpan*10 {
		return 0, false
	}
	if neg {
		tenths = -tenths
	}
	return signalSpan*10 + tenths, true
}
