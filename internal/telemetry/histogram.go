package telemetry

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans 1µs..1s in a 1-2.5-5 progression — wide
// enough for per-module packet handling (sub-µs..ms) and end-to-end
// pipeline latencies under load.
var DefaultLatencyBuckets = []time.Duration{
	1 * time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second,
}

// Histogram is a fixed-bucket latency histogram. Bounds are upper
// bucket edges (inclusive, Prometheus "le" semantics); an implicit
// +Inf bucket catches the overflow. Observe and ObserveN are lock-free
// and allocation-free: integer compares over a small bounds slice plus
// three atomic adds.
type Histogram struct {
	bounds  []int64 // nanoseconds, ascending
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	ns := make([]int64, len(bounds))
	for i, b := range bounds {
		ns[i] = int64(b)
	}
	return &Histogram{bounds: ns, buckets: make([]atomic.Uint64, len(ns)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records one measured duration standing for n events of that
// length: d's bucket and the count grow by n, the sum by n·d. A caller
// that measures one event in n and weights it n keeps count and sum
// unbiased estimates of what measuring every event would have recorded.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if h == nil {
		return
	}
	ns := int64(d)
	i := 0
	for i < len(h.bounds) && ns > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(n)
	h.count.Add(n)
	h.sum.Add(ns * int64(n))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Bucket is one cumulative histogram bucket in a snapshot; LE is the
// upper bound in seconds.
type Bucket struct {
	LE    float64 `json:"le_seconds"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// exposition (buckets are cumulative, per Prometheus convention). Only
// the finite buckets are listed — +Inf cannot be encoded in JSON — and
// Count stands in for the +Inf cumulative count.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Snapshot copies the histogram state with cumulative bucket counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Count:      h.count.Load(),
		SumSeconds: float64(h.sum.Load()) / 1e9,
		Buckets:    make([]Bucket, len(h.bounds)),
	}
	var cum uint64
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		snap.Buckets[i] = Bucket{LE: float64(h.bounds[i]) / 1e9, Count: cum}
	}
	return snap
}
