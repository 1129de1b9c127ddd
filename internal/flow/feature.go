package flow

import (
	"math"
	"sort"
	"sync"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// Value is one emitted feature value.
type Value struct {
	// Name is the exported feature-value name (e.g. "iat_mean_s").
	Name string
	// V is the value. Durations are emitted in seconds.
	V float64
}

// State is one per-flow feature state machine. Update is called once
// per packet, before the table advances the flow's Last/Packets/Bytes
// counters (see Flow); Emit appends the feature's final values when the
// flow is exported. Implementations must do O(1) work per packet and
// must not allocate on the steady-state update path.
type State interface {
	Update(f *Flow, c *packet.Captured)
	Emit(f *Flow, out []Value) []Value
}

// Factory builds a fresh feature state for a new flow.
type Factory func() State

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a feature under the given name. Registration happens at
// init time; re-registering a name replaces the factory.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = f
}

// Features returns the registered feature names, sorted.
func Features() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultFeatures is the feature set a zero Config selects.
func DefaultFeatures() []string {
	return []string{"rate", "iat", "rssi", "thl", "etx"}
}

// Export names are concatenated once here, not per Emit: flows export
// continuously under load, and per-export name building was a measurable
// allocation source (hotalloc).
var (
	iatNames  = makeWelfordNames("iat")
	rssiNames = makeWelfordNames("rssi")
	thlNames  = makeRangeNames("thl")
	etxNames  = makeRangeNames("etx")
)

func init() {
	Register("rate", func() State { return rateFeature{} })
	//lint:ignore hotalloc feature state is allocated once per new flow, amortized across the flow's packets
	Register("iat", func() State { return &welfordFeature{names: iatNames, sample: sampleIAT} })
	//lint:ignore hotalloc feature state is allocated once per new flow, amortized across the flow's packets
	Register("rssi", func() State { return &welfordFeature{names: rssiNames, sample: sampleRSSI} })
	//lint:ignore hotalloc feature state is allocated once per new flow, amortized across the flow's packets
	Register("thl", func() State { return &ctpRangeFeature{names: thlNames, sample: sampleTHL} })
	//lint:ignore hotalloc feature state is allocated once per new flow, amortized across the flow's packets
	Register("etx", func() State { return &ctpRangeFeature{names: etxNames, sample: sampleETX} })
}

// rateFeature emits the flow's mean packet rate. It carries no state:
// everything it needs lives in the flow's core counters, so Update is
// free and the rate is exact at export time.
type rateFeature struct{}

func (rateFeature) Update(*Flow, *packet.Captured) {}

func (rateFeature) Emit(f *Flow, out []Value) []Value {
	dur := f.Last.Sub(f.First).Seconds()
	rate := 0.0
	if dur > 0 && f.Packets > 1 {
		rate = float64(f.Packets-1) / dur
	}
	return append(out, Value{Name: "rate_pps", V: rate})
}

// welford is numerically stable streaming mean/variance with min/max.
type welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

func (w *welford) add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) stddev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// welfordFeature streams one scalar sample per packet through a Welford
// accumulator and emits mean/stddev/min/max. The sample hook returns
// false to skip a packet (e.g. the first packet has no inter-arrival).
type welfordFeature struct {
	names  welfordNames
	sample func(f *Flow, c *packet.Captured) (float64, bool)
	w      welford
}

// welfordNames are a welford feature's precomputed export names.
type welfordNames struct {
	mean, stddev, min, max string
}

func makeWelfordNames(base string) welfordNames {
	return welfordNames{
		mean:   base + "_mean",
		stddev: base + "_stddev",
		min:    base + "_min",
		max:    base + "_max",
	}
}

func (ft *welfordFeature) Update(f *Flow, c *packet.Captured) {
	if x, ok := ft.sample(f, c); ok {
		ft.w.add(x)
	}
}

func (ft *welfordFeature) Emit(f *Flow, out []Value) []Value {
	if ft.w.n == 0 {
		return out
	}
	return append(out,
		Value{Name: ft.names.mean, V: ft.w.mean},
		Value{Name: ft.names.stddev, V: ft.w.stddev()},
		Value{Name: ft.names.min, V: ft.w.min},
		Value{Name: ft.names.max, V: ft.w.max},
	)
}

// sampleIAT yields the inter-arrival time in seconds. During Update the
// flow's Last still holds the previous packet's timestamp, so the first
// packet (Packets == 0) is skipped.
func sampleIAT(f *Flow, c *packet.Captured) (float64, bool) {
	if f.Packets == 0 {
		return 0, false
	}
	return time.Duration(c.Nanos() - f.lastNs).Seconds(), true
}

// sampleRSSI yields the observed signal strength (skipped on wired
// captures where RSSI carries no information).
func sampleRSSI(f *Flow, c *packet.Captured) (float64, bool) {
	if c.Medium == packet.MediumWired {
		return 0, false
	}
	return c.RSSI, true
}

// ctpRangeFeature tracks first/last/min/max of a CTP header field and
// emits the last value plus the range and total drift — the THL and ETX
// deltas that betray routing manipulation.
type ctpRangeFeature struct {
	names    rangeNames
	sample   func(c *packet.Captured) (float64, bool)
	seen     bool
	first    float64
	last     float64
	min, max float64
}

func (ft *ctpRangeFeature) Update(f *Flow, c *packet.Captured) {
	x, ok := ft.sample(c)
	if !ok {
		return
	}
	if !ft.seen {
		ft.seen = true
		ft.first, ft.min, ft.max = x, x, x
	} else {
		if x < ft.min {
			ft.min = x
		}
		if x > ft.max {
			ft.max = x
		}
	}
	ft.last = x
}

func (ft *ctpRangeFeature) Emit(f *Flow, out []Value) []Value {
	if !ft.seen {
		return out
	}
	return append(out,
		Value{Name: ft.names.last, V: ft.last},
		Value{Name: ft.names.rng, V: ft.max - ft.min},
		Value{Name: ft.names.delta, V: ft.last - ft.first},
	)
}

// rangeNames are a range feature's precomputed export names.
type rangeNames struct {
	last, rng, delta string
}

func makeRangeNames(base string) rangeNames {
	return rangeNames{
		last:  base + "_last",
		rng:   base + "_range",
		delta: base + "_delta",
	}
}

// sampleTHL reads the CTP time-has-lived counter.
func sampleTHL(c *packet.Captured) (float64, bool) {
	if d, ok := c.Layer("ctp-data").(*ctp.Data); ok {
		return float64(d.THL), true
	}
	return 0, false
}

// sampleETX reads the CTP path-cost estimate from data or beacon
// frames.
func sampleETX(c *packet.Captured) (float64, bool) {
	if d, ok := c.Layer("ctp-data").(*ctp.Data); ok {
		return float64(d.ETX), true
	}
	if b, ok := c.Layer("ctp-beacon").(*ctp.Beacon); ok {
		return float64(b.ETX), true
	}
	return 0, false
}
