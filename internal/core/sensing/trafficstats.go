package sensing

import (
	"strconv"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// TrafficStatsName is the registry name of the Traffic Statistics
// Collection module.
const TrafficStatsName = "TrafficStatsModule"

// TrafficStats is the Traffic Statistics Collection sensing module
// (§V): it maintains the frequency of each type of traffic overheard in
// the network — "the number of packets per unit of time (configurable
// but set to 5 seconds by default)" — both for the whole network and
// for each individual monitored device, "to support an accurate
// detection of targeted DoS-like attacks".
//
// Frequencies are published as multilevel TrafficFrequency knowggets:
// "TrafficFrequency.TCPSYN" for the network-wide rate (packets/second)
// and "TrafficFrequency.TCPSYN@<entity>" for the rate of traffic
// destined to each device. Time comes from packet timestamps, so the
// module works identically on live capture and trace replay.
type TrafficStats struct {
	ctx      *module.Context
	interval time.Duration

	windowStart time.Time
	global      map[packet.Kind]int
	perDst      map[packet.Kind]map[packet.NodeID]int
	// prevGlobal/prevDst remember what was published last window so a
	// kind that goes quiet is explicitly published as rate 0 — stale
	// high rates must not linger in the Knowledge Base.
	prevGlobal map[packet.Kind]bool
	prevDst    map[packet.Kind]map[packet.NodeID]bool
}

var _ module.Module = (*TrafficStats)(nil)

// NewTrafficStats creates the module. Parameters: "interval" (Go
// duration, default "5s").
func NewTrafficStats(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&TrafficStats{interval: p.Duration("interval", 5*time.Second)})
}

// Name implements module.Module.
func (t *TrafficStats) Name() string { return TrafficStatsName }

// Kind implements module.Module.
func (t *TrafficStats) Kind() module.Kind { return module.KindSensing }

// WatchLabels implements module.Module.
func (t *TrafficStats) WatchLabels() []string { return nil }

// Required implements module.Module: traffic statistics underpin every
// anomaly-based detector and are always required.
func (t *TrafficStats) Required(*knowledge.Base) bool { return true }

// Activate implements module.Module.
func (t *TrafficStats) Activate(ctx *module.Context) {
	t.ctx = ctx
	t.windowStart = time.Time{}
	t.reset()
}

// Deactivate implements module.Module.
func (t *TrafficStats) Deactivate() { t.ctx = nil }

func (t *TrafficStats) reset() {
	t.global = make(map[packet.Kind]int)
	t.perDst = make(map[packet.Kind]map[packet.NodeID]int)
}

// HandlePacket implements module.Module.
func (t *TrafficStats) HandlePacket(c *packet.Captured) {
	if t.windowStart.IsZero() {
		t.windowStart = c.Time
	}
	// Close out full windows (handles idle gaps spanning several
	// intervals by publishing only the window that had traffic; rates
	// decay naturally as new windows publish lower counts).
	for c.Time.Sub(t.windowStart) >= t.interval {
		t.publish()
		t.reset()
		t.windowStart = t.windowStart.Add(t.interval)
		if c.Time.Sub(t.windowStart) >= 10*t.interval {
			// Long silence: jump to the current window.
			t.windowStart = c.Time.Truncate(t.interval)
		}
	}
	t.global[c.Kind]++
	m := t.perDst[c.Kind]
	if m == nil {
		m = make(map[packet.NodeID]int)
		t.perDst[c.Kind] = m
	}
	if c.Dst != "" {
		m[c.Dst]++
	}
}

//lint:coldpath publish runs once per stats interval tick; the per-kind key concatenations are off the per-packet budget
func (t *TrafficStats) publish() {
	kb := t.ctx.KB
	secs := t.interval.Seconds()
	for kind, n := range t.global {
		kb.Put(knowledge.LabelTrafficFrequency+"."+kind.String(), formatRate(float64(n)/secs))
	}
	for kind := range t.prevGlobal {
		if _, ok := t.global[kind]; !ok {
			kb.Put(knowledge.LabelTrafficFrequency+"."+kind.String(), formatRate(0))
		}
	}
	for kind, m := range t.perDst {
		for dst, n := range m {
			kb.PutEntity(knowledge.LabelTrafficFrequency+"."+kind.String(), string(dst), formatRate(float64(n)/secs))
		}
	}
	for kind, prev := range t.prevDst {
		for dst := range prev {
			if t.perDst[kind] == nil || t.perDst[kind][dst] == 0 {
				kb.PutEntity(knowledge.LabelTrafficFrequency+"."+kind.String(), string(dst), formatRate(0))
			}
		}
	}
	t.prevGlobal = make(map[packet.Kind]bool, len(t.global))
	for kind := range t.global {
		t.prevGlobal[kind] = true
	}
	t.prevDst = make(map[packet.Kind]map[packet.NodeID]bool, len(t.perDst))
	for kind, m := range t.perDst {
		set := make(map[packet.NodeID]bool, len(m))
		for dst := range m {
			set[dst] = true
		}
		t.prevDst[kind] = set
	}
}

func formatRate(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
