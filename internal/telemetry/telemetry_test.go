package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("Value() = %d, want %d", got, workers*per)
	}
}

func TestCounterAdd(t *testing.T) {
	c := &Counter{}
	c.Add(5)
	c.Add(7)
	if got := c.Value(); got != 12 {
		t.Errorf("Value() = %d, want 12", got)
	}
}

func TestGauge(t *testing.T) {
	g := &Gauge{}
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Errorf("Value() = %d, want 7", got)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(time.Millisecond)
	h.ObserveN(time.Millisecond, 16)
	cv.With("x").Inc()
	gv.With("x").Set(2)
	hv.With("x").Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil metrics must read zero")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]time.Duration{time.Microsecond, time.Millisecond, time.Second})
	h.Observe(500 * time.Nanosecond)  // ≤ 1µs
	h.Observe(time.Microsecond)       // ≤ 1µs (le is inclusive)
	h.Observe(30 * time.Microsecond)  // ≤ 1ms
	h.Observe(100 * time.Millisecond) // ≤ 1s
	h.Observe(5 * time.Second)        // +Inf

	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	wantSum := 500*time.Nanosecond + time.Microsecond + 30*time.Microsecond +
		100*time.Millisecond + 5*time.Second
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum() = %v, want %v", got, wantSum)
	}
	snap := h.Snapshot()
	wantCum := []uint64{2, 3, 4} // cumulative, finite buckets only
	if len(snap.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(snap.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if snap.Buckets[i].Count != want {
			t.Errorf("bucket[%d] = %d, want %d", i, snap.Buckets[i].Count, want)
		}
	}
}

// TestObserveNWeights: one measured duration standing for n events adds
// n to its bucket and to the count and n·d to the sum, in the snapshot
// and in both expositions; Observe is the n = 1 case of the same body.
func TestObserveNWeights(t *testing.T) {
	for _, n := range []uint64{1, 16} {
		r := NewRegistry()
		h := r.Histogram("kalis_handle_seconds", "Handling latency.",
			[]time.Duration{time.Microsecond, time.Millisecond})
		h.ObserveN(10*time.Microsecond, n) // ≤ 1ms
		h.ObserveN(2*time.Millisecond, n)  // +Inf
		if n == 1 {
			same := newHistogram([]time.Duration{time.Microsecond, time.Millisecond})
			same.Observe(10 * time.Microsecond)
			same.Observe(2 * time.Millisecond)
			if fmt.Sprint(same.Snapshot()) != fmt.Sprint(h.Snapshot()) {
				t.Errorf("Observe(d) = %+v, ObserveN(d, 1) = %+v", same.Snapshot(), h.Snapshot())
			}
		}

		if got := h.Count(); got != 2*n {
			t.Errorf("n=%d: Count() = %d, want %d", n, got, 2*n)
		}
		if got, want := h.Sum(), time.Duration(n)*2010*time.Microsecond; got != want {
			t.Errorf("n=%d: Sum() = %v, want %v", n, got, want)
		}
		snap := r.Snapshot()["kalis_handle_seconds"].Value.(HistogramSnapshot)
		if snap.Count != 2*n || snap.Buckets[0].Count != 0 || snap.Buckets[1].Count != n {
			t.Errorf("n=%d: snapshot = %+v", n, snap)
		}
		if want := float64(n) * 2010e-6; math.Abs(snap.SumSeconds-want) > 1e-12 {
			t.Errorf("n=%d: snapshot sum = %v s, want %v", n, snap.SumSeconds, want)
		}

		var prom, js strings.Builder
		if err := r.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			`kalis_handle_seconds_bucket{le="1e-06"} 0`,
			fmt.Sprintf(`kalis_handle_seconds_bucket{le="0.001"} %d`, n),
			fmt.Sprintf(`kalis_handle_seconds_bucket{le="+Inf"} %d`, 2*n),
			fmt.Sprintf("kalis_handle_seconds_count %d", 2*n),
		} {
			if !strings.Contains(prom.String(), want) {
				t.Errorf("n=%d: exposition missing %q in:\n%s", n, want, prom.String())
			}
		}
		if err := r.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`"count": %d,`, 2*n); !strings.Contains(js.String(), want) {
			t.Errorf("n=%d: JSON missing %q in:\n%s", n, want, js.String())
		}
	}
}

func TestVecChildrenAreStable(t *testing.T) {
	v := &CounterVec{label: "topic"}
	a := v.With("packet")
	b := v.With("packet")
	if a != b {
		t.Error("With must return the same child for the same label value")
	}
	a.Inc()
	v.With("detection").Add(2)
	if a.Value() != 1 || v.With("detection").Value() != 2 {
		t.Error("children must track independently")
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("kalis_ingest_queue_depth", "shard", "Per-shard queue depth.")
	a := v.With("0")
	if b := v.With("0"); a != b {
		t.Error("With must return the same child for the same label value")
	}
	a.Set(7)
	v.With("1").Set(3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE kalis_ingest_queue_depth gauge",
		`kalis_ingest_queue_depth{shard="0"} 7`,
		`kalis_ingest_queue_depth{shard="1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	snap := r.Snapshot()["kalis_ingest_queue_depth"]
	children, ok := snap.Value.(map[string]interface{})
	if !ok || children["0"].(int64) != 7 || children["1"].(int64) != 3 {
		t.Errorf("JSON snapshot = %#v, want per-shard values 7 and 3", snap.Value)
	}
}

func TestRegistryDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("kalis_packets_total", "Packets.")
	b := r.Counter("kalis_packets_total", "Packets.")
	if a != b {
		t.Error("duplicate registration must return the existing metric")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash must panic")
		}
	}()
	r.Gauge("kalis_packets_total", "Clash.")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("kalis_packets_total", "Packets seen.").Add(42)
	r.Gauge("kalis_modules_active", "Active modules.").Set(3)
	r.GaugeFunc("kalis_queue_depth", "Queue depth.", func() float64 { return 1.5 })
	v := r.CounterVec("kalis_alerts_total", "attack", "Alerts per attack.")
	v.With("smurf").Add(2)
	v.With("icmp-flood").Inc()
	h := r.Histogram("kalis_handle_seconds", "Handling latency.",
		[]time.Duration{time.Microsecond, time.Millisecond})
	h.Observe(10 * time.Microsecond)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP kalis_packets_total Packets seen.",
		"# TYPE kalis_packets_total counter",
		"kalis_packets_total 42",
		"kalis_modules_active 3",
		"kalis_queue_depth 1.5",
		`kalis_alerts_total{attack="icmp-flood"} 1`,
		`kalis_alerts_total{attack="smurf"} 2`,
		"# TYPE kalis_handle_seconds histogram",
		`kalis_handle_seconds_bucket{le="1e-06"} 0`,
		`kalis_handle_seconds_bucket{le="0.001"} 1`,
		`kalis_handle_seconds_bucket{le="+Inf"} 1`,
		"kalis_handle_seconds_sum 1e-05",
		"kalis_handle_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Vec children must render sorted by label value.
	if strings.Index(out, `attack="icmp-flood"`) > strings.Index(out, `attack="smurf"`) {
		t.Error("vec children not sorted by label value")
	}
}

func TestHistogramVecPrometheus(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("kalis_module_packet_seconds", "module", "Per-module latency.", nil)
	hv.With("IcmpFloodDetection").Observe(3 * time.Microsecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`kalis_module_packet_seconds_bucket{module="IcmpFloodDetection",le="5e-06"} 1`,
		`kalis_module_packet_seconds_bucket{module="IcmpFloodDetection",le="+Inf"} 1`,
		`kalis_module_packet_seconds_count{module="IcmpFloodDetection"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("kalis_packets_total", "Packets.").Add(7)
	r.CounterVec("kalis_alerts_total", "attack", "Alerts.").With("smurf").Inc()
	r.Histogram("kalis_handle_seconds", "Latency.", nil).Observe(time.Millisecond)

	snap := r.Snapshot()
	if got := snap["kalis_packets_total"].Value.(uint64); got != 7 {
		t.Errorf("counter snapshot = %v, want 7", got)
	}
	alerts := snap["kalis_alerts_total"]
	if alerts.Label != "attack" {
		t.Errorf("label = %q, want attack", alerts.Label)
	}
	if got := alerts.Value.(map[string]interface{})["smurf"].(uint64); got != 1 {
		t.Errorf("vec snapshot = %v, want 1", got)
	}
	hs := snap["kalis_handle_seconds"].Value.(HistogramSnapshot)
	if hs.Count != 1 || hs.SumSeconds != 0.001 {
		t.Errorf("histogram snapshot = %+v", hs)
	}

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(sb.String(), `"type": "histogram"`) {
		t.Errorf("JSON output missing histogram type:\n%s", sb.String())
	}
}

// TestHotPathAllocs enforces the always-on contract: the instrumented
// packet path must not allocate. (The benchmark measures latency; this
// test makes the 0 allocs/op claim a hard gate for `go test`.)
func TestHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	v := r.CounterVec("v", "topic", "")
	hv := r.HistogramVec("hv", "module", "", nil)
	v.With("packet") // create children outside the measured loop
	hv.With("mod")

	for name, fn := range map[string]func(){
		"Counter.Inc":        func() { c.Inc() },
		"Gauge.Set":          func() { g.Set(9) },
		"Histogram.Observe":  func() { h.Observe(42 * time.Microsecond) },
		"Histogram.ObserveN": func() { h.ObserveN(42*time.Microsecond, 16) },
		"CounterVec.With":    func() { v.With("packet").Inc() },
		"HistogramVec.With":  func() { hv.With("mod").Observe(time.Microsecond) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
