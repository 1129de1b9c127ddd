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

	started     bool
	windowStart int64 // capture nanoseconds
	window      int64 // the current window's number, for dsts
	counts      [packet.NumKinds]int
	baselines   [packet.NumKinds]welford
	// dsts counts each destination's traffic per kind in the current
	// window, to give alerts a victim (the dominant destination).
	dsts packet.ByHandle[anomalyDst]
}

// anomalyDst is one destination's per-kind counts in window number
// window (counts of an older window read as zero).
type anomalyDst struct {
	id     packet.NodeID
	window int64
	n      [packet.NumKinds]int
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
	d.started, d.window = false, 0
	d.counts = [packet.NumKinds]int{}
	d.baselines = [packet.NumKinds]welford{}
	d.dsts.Reset()
}

// HandlePacket implements module.Module.
func (d *TrafficAnomaly) HandlePacket(c *packet.Captured) {
	now := c.Nanos()
	if !d.started {
		d.started, d.windowStart = true, now
	}
	interval := int64(d.interval)
	for now-d.windowStart >= interval {
		// The window's end, as a time in the capture's own location.
		d.closeWindow(c.Time.Add(time.Duration(d.windowStart + interval - now)))
		d.windowStart += interval
		if now-d.windowStart >= 10*interval {
			d.windowStart = packet.TruncateNanos(now, d.interval)
		}
	}
	if int(c.Kind) >= packet.NumKinds {
		return
	}
	d.counts[c.Kind]++
	if c.DstH != 0 && c.Dst != packet.Broadcast {
		t, fresh := d.dsts.Put(c.DstH)
		if fresh {
			t.id = c.Dst
		}
		if t.window != d.window {
			t.window, t.n = d.window, [packet.NumKinds]int{}
		}
		t.n[c.Kind]++
	}
}

// closeWindow scores the finished window against the baselines and
// folds it in.
//
//lint:coldpath runs once per window roll, not per packet; baseline state allocates per (kind, window), bounded by the kind alphabet
func (d *TrafficAnomaly) closeWindow(at time.Time) {
	seen := [packet.NumKinds]bool{}
	for k, count := range d.counts {
		if count == 0 {
			continue
		}
		seen[k] = true
		kind, w := packet.Kind(k), &d.baselines[k]
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
	for k := range d.baselines {
		if w := &d.baselines[k]; !seen[k] && w.n >= 1 {
			w.add(0)
		}
	}
	d.counts = [packet.NumKinds]int{}
	d.window++
}

func (d *TrafficAnomaly) topDst(kind packet.Kind) packet.NodeID {
	var best packet.NodeID
	bestN := 0
	d.dsts.Range(func(_ packet.Handle, _ bool, t *anomalyDst) {
		if n := t.n[kind]; t.window == d.window && n > 0 && (n > bestN || (n == bestN && t.id < best)) {
			best, bestN = t.id, n
		}
	})
	return best
}
