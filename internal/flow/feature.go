package flow

import (
	"math"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// Value is one emitted feature value.
type Value struct {
	// Name is the exported feature-value name (e.g. "iat_mean").
	Name string
	// V is the value. Durations are emitted in seconds.
	V float64
}

// maxValues is the most values a record carries: rate, four per
// Welford accumulator and three per drift accumulator.
const maxValues = 1 + 2*4 + 2*3

// Export names are fixed here, not built per emit: flows export
// continuously under load.
var (
	iatNames  = welfordNames{"iat_mean", "iat_stddev", "iat_min", "iat_max"}
	rssiNames = welfordNames{"rssi_mean", "rssi_stddev", "rssi_min", "rssi_max"}
	thlNames  = driftNames{"thl_last", "thl_range", "thl_delta"}
	etxNames  = driftNames{"etx_last", "etx_range", "etx_delta"}
)

// features is a flow's feature state, stored inline in the flow. The
// packet rate needs none: it is computed from the flow's counters at
// export, so it is exact.
type features struct {
	// iat streams inter-arrival times in seconds; rssi the observed
	// signal strength of non-wired captures.
	iat, rssi welford
	// thl and etx track the CTP time-has-lived counter and path-cost
	// estimate — the deltas that betray routing manipulation.
	thl, etx drift
}

// update folds in one capture taken at now (capture nanoseconds). It
// runs before the table advances the flow's last/packets/bytes, so the
// first packet (packets == 0) has no inter-arrival.
func (ft *features) update(f *flow, c *packet.Captured, now int64) {
	if f.packets > 0 {
		ft.iat.add(time.Duration(now - f.lastNs).Seconds())
	}
	if c.Medium != packet.MediumWired {
		ft.rssi.add(c.RSSI)
	}
	if d, ok := c.Layer("ctp-data").(*ctp.Data); ok {
		ft.thl.add(float64(d.THL))
		ft.etx.add(float64(d.ETX))
	} else if b, ok := c.Layer("ctp-beacon").(*ctp.Beacon); ok {
		ft.etx.add(float64(b.ETX))
	}
}

// emit appends the flow's final values in a fixed order: rate, iat,
// rssi, thl, etx. An accumulator that saw no sample emits nothing.
func (ft *features) emit(f *flow, out []Value) []Value {
	rate := 0.0
	if dur := f.last.Sub(f.first).Seconds(); dur > 0 && f.packets > 1 {
		rate = float64(f.packets-1) / dur
	}
	out = append(out, Value{Name: "rate_pps", V: rate})
	out = ft.iat.emit(&iatNames, out)
	out = ft.rssi.emit(&rssiNames, out)
	out = ft.thl.emit(&thlNames, out)
	return ft.etx.emit(&etxNames, out)
}

// welford is numerically stable streaming mean/variance with min/max.
type welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// welfordNames are a welford accumulator's export names.
type welfordNames struct {
	mean, stddev, min, max string
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

func (w *welford) emit(names *welfordNames, out []Value) []Value {
	if w.n == 0 {
		return out
	}
	return append(out,
		Value{Name: names.mean, V: w.mean},
		Value{Name: names.stddev, V: w.stddev()},
		Value{Name: names.min, V: w.min},
		Value{Name: names.max, V: w.max},
	)
}

// drift tracks first/last/min/max of a header field and emits the last
// value plus the range and total drift.
type drift struct {
	seen     bool
	first    float64
	last     float64
	min, max float64
}

// driftNames are a drift accumulator's export names.
type driftNames struct {
	last, rng, delta string
}

func (d *drift) add(x float64) {
	if !d.seen {
		d.seen = true
		d.first, d.min, d.max = x, x, x
	} else {
		if x < d.min {
			d.min = x
		}
		if x > d.max {
			d.max = x
		}
	}
	d.last = x
}

func (d *drift) emit(names *driftNames, out []Value) []Value {
	if !d.seen {
		return out
	}
	return append(out,
		Value{Name: names.last, V: d.last},
		Value{Name: names.rng, V: d.max - d.min},
		Value{Name: names.delta, V: d.last - d.first},
	)
}
