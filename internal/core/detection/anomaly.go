package detection

import (
	"fmt"
	"math"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// TrafficAnomalyName is the registry name of the anomaly-based module.
const TrafficAnomalyName = "TrafficAnomalyModule"

// AnomalyAttack is the attack name anomaly alerts carry: the module
// flags deviations from the learned baseline without claiming a
// specific known attack ("able to react to unknown attacks", §IV-B4).
const AnomalyAttack = "traffic-anomaly"

// TrafficAnomaly is the anomaly-based detection module the paper's
// hybrid signature/anomaly design calls for: it learns a per-kind
// traffic-rate baseline (mean and variance over fixed windows, via
// Welford's algorithm) from the Traffic Statistics data stream and
// alerts when a window's rate deviates from its baseline by more than
// a z-score threshold — catching attacks no signature module knows.
//
// Anomaly detection is intentionally opt-in (enable with the
// AnomalyDetection knowgget): the paper notes anomaly approaches are
// "more inaccurate, potentially yielding high false positive rates"
// (§II-B), so the knowledge-driven default leaves it off unless the
// operator asks for it.
type TrafficAnomaly struct {
	base
	// interval is the counting window.
	interval time.Duration
	// zThreshold is the deviation (in standard deviations) that
	// triggers an alert.
	zThreshold float64
	// minWindows is the number of learned windows before alerts fire.
	minWindows int
	cooldown   time.Duration

	windowStart time.Time
	counts      map[packet.Kind]int
	baselines   map[packet.Kind]*welford
	// lastDst remembers the dominant destination per kind in the
	// current window, to give alerts a victim.
	dsts map[packet.Kind]map[packet.NodeID]int
}

// welford is an online mean/variance accumulator.
type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
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

var _ module.Module = (*TrafficAnomaly)(nil)

// NewTrafficAnomaly creates the module. Parameters: "interval"
// (duration, default 5s), "zThreshold" (float, default 4),
// "minWindows" (int, default 6), "cooldown" (duration, default 15s).
func NewTrafficAnomaly(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&TrafficAnomaly{
		base:       base{name: TrafficAnomalyName},
		interval:   p.Duration("interval", 5*time.Second),
		zThreshold: p.Float("zThreshold", 4),
		minWindows: p.Int("minWindows", 6),
		cooldown:   p.Duration("cooldown", 15*time.Second),
	})
}

// WatchLabels implements module.Module.
func (d *TrafficAnomaly) WatchLabels() []string { return []string{"AnomalyDetection"} }

// Required implements module.Module: opt-in via the AnomalyDetection
// knowgget.
func (d *TrafficAnomaly) Required(kb *knowledge.Base) bool {
	return boolIs(kb, "AnomalyDetection", true)
}

// Activate implements module.Module.
func (d *TrafficAnomaly) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.windowStart = time.Time{}
	d.counts = make(map[packet.Kind]int)
	d.baselines = make(map[packet.Kind]*welford)
	d.dsts = make(map[packet.Kind]map[packet.NodeID]int)
}

// HandlePacket implements module.Module.
func (d *TrafficAnomaly) HandlePacket(c *packet.Captured) {
	if d.windowStart.IsZero() {
		d.windowStart = c.Time
	}
	for c.Time.Sub(d.windowStart) >= d.interval {
		d.closeWindow(d.windowStart.Add(d.interval))
		d.windowStart = d.windowStart.Add(d.interval)
		if c.Time.Sub(d.windowStart) >= 10*d.interval {
			d.windowStart = c.Time.Truncate(d.interval)
		}
	}
	d.counts[c.Kind]++
	if c.Dst != "" && c.Dst != packet.Broadcast {
		if d.dsts[c.Kind] == nil {
			d.dsts[c.Kind] = make(map[packet.NodeID]int)
		}
		d.dsts[c.Kind][c.Dst]++
	}
}

// closeWindow scores the finished window against the baselines and
// folds it in.
//
//lint:coldpath runs once per window roll, not per packet; baseline state allocates per (kind, window), bounded by the kind alphabet
func (d *TrafficAnomaly) closeWindow(at time.Time) {
	for kind, count := range d.counts {
		w := d.baselines[kind]
		if w == nil {
			w = &welford{}
			d.baselines[kind] = w
		}
		x := float64(count)
		if w.n >= d.minWindows {
			sd := w.stddev()
			if sd < 1 {
				sd = 1 // quantized counts: a floor keeps z sane
			}
			z := (x - w.mean) / sd
			if z > d.zThreshold && d.gate.Pass(kind.String(), at, d.cooldown) {
				d.ctx.Emit(module.Alert{
					Time:       at,
					Attack:     AnomalyAttack,
					Module:     d.Name(),
					Victim:     d.topDst(kind),
					Confidence: 0.4,
					Details: fmt.Sprintf("%s rate %.0f/window deviates %.1fσ from baseline %.1f",
						kind, x, z, w.mean),
				})
				// Do not fold attack windows into the baseline.
				continue
			}
		}
		w.add(x)
	}
	// Kinds absent this window regress towards zero.
	for kind, w := range d.baselines {
		if _, seen := d.counts[kind]; !seen && w.n >= 1 {
			w.add(0)
		}
	}
	d.counts = make(map[packet.Kind]int)
	d.dsts = make(map[packet.Kind]map[packet.NodeID]int)
}

func (d *TrafficAnomaly) topDst(kind packet.Kind) packet.NodeID {
	var best packet.NodeID
	bestN := 0
	for dst, n := range d.dsts[kind] {
		if n > bestN || (n == bestN && dst < best) {
			best, bestN = dst, n
		}
	}
	return best
}
