package sensing

import (
	"slices"
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
// (§V): it counts each type of traffic overheard in the network per
// interval — "the number of packets per unit of time (configurable but
// set to 5 seconds by default)".
//
// A kind's network-wide rate (packets/second) is published as the
// multilevel knowgget "TrafficFrequency.<Kind>" when it moves: when an
// interval's rate is at least ten times or at most a tenth of the rate
// last published, or goes to or from zero. A steady kind is silent, so
// the knowgget marks a flood starting or stopping rather than every
// interval's count; per-destination evidence of targeted DoS lives in
// the flow layer's victim windows. Time comes from packet timestamps,
// so the module works identically on live capture and trace replay.
//
// A put goes through the kind's pre-keyed knowledge.Entry, and a rate
// is rendered once per distinct count, so a put of a rate seen before
// allocates nothing: a kind that comes and goes at a few packets an
// interval moves to and from zero every few windows.
type TrafficStats struct {
	ctx      *module.Context
	interval time.Duration

	started     bool
	windowStart int64 // capture nanoseconds
	// counts holds this window's packets per kind; published, per kind,
	// the count behind the rate last published (0 also when none was).
	counts, published [packet.NumKinds]int
	entries           [packet.NumKinds]knowledge.Entry
	// rates[n] is the rendered rate of a count of n, "" until needed.
	rates []string
}

// maxCachedRate bounds the rendered-rate cache; larger counts are
// rendered per put.
const maxCachedRate = 1 << 16

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
	t.started = false
	t.counts = [packet.NumKinds]int{}
	t.published = [packet.NumKinds]int{}
	for k := range t.entries {
		t.entries[k] = ctx.KB.Entry(knowledge.LabelTrafficFrequency+"."+packet.Kind(k).String(), "", false)
	}
}

// Deactivate implements module.Module.
func (t *TrafficStats) Deactivate() { t.ctx = nil }

// HandlePacket implements module.Module.
func (t *TrafficStats) HandlePacket(c *packet.Captured) {
	now := c.Nanos()
	if !t.started {
		t.started, t.windowStart = true, now
	}
	// Close out full windows (an idle gap spanning several intervals
	// closes the window that had traffic, then quiet ones).
	interval := int64(t.interval)
	for now-t.windowStart >= interval {
		t.publish()
		t.windowStart += interval
		if now-t.windowStart >= 10*interval {
			// Long silence: jump to the current window.
			t.windowStart = packet.TruncateNanos(now, t.interval)
		}
	}
	if int(c.Kind) < packet.NumKinds {
		t.counts[c.Kind]++
	}
}

// publish puts, in kind order, the rate of every kind whose count this
// window moved tenfold from the one last published, or to or from
// zero, and zeroes the counters.
//
//lint:coldpath publish runs once per stats interval tick; entries are keyed and rates rendered once, so a put of a count seen before allocates nothing
func (t *TrafficStats) publish() {
	for k, n := range t.counts {
		if p := t.published[k]; n != p && (p == 0 || n == 0 || n >= 10*p || 10*n <= p) {
			t.ctx.KB.PutEntry(&t.entries[k], t.rate(n))
			t.published[k] = n
		}
	}
	t.counts = [packet.NumKinds]int{}
}

// rate renders the rate of n packets in one interval.
func (t *TrafficStats) rate(n int) string {
	if n < len(t.rates) && t.rates[n] != "" {
		return t.rates[n]
	}
	r := strconv.FormatFloat(float64(n)/t.interval.Seconds(), 'f', 3, 64)
	if n < maxCachedRate {
		if n >= len(t.rates) {
			t.rates = slices.Grow(t.rates, n+1-len(t.rates))[:n+1]
		}
		t.rates[n] = r
	}
	return r
}
