package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"kalis/internal/eval"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	sorted := make([]int64, 2000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	// 2000 samples leave exactly 10 beyond p99.5 and 2 beyond p99.9.
	if v, err := percentile(sorted, 0.995); err != nil || v != 1990 {
		t.Errorf("p99.5 of 1..2000 = %d, %v; want 1990", v, err)
	}
	if _, err := percentile(sorted, 0.999); err == nil {
		t.Error("p99.9 of 2000 samples has 2 samples beyond it and was not refused")
	}
	if _, err := percentile(sorted[:1999], 0.995); err == nil {
		t.Error("p99.5 of 1999 samples has 9 samples beyond it and was not refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples was not refused")
	}
}

// The PR driver computes spreads with Python's statistics.quantiles(n=4);
// the expected values below are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{9, 1, 4}, [3]float64{1, 4, 9}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 8, 2, 2, 7.5, 11}, [3]float64{2, 3.5, 8}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestLapsKeepTheFastestOfEachLap(t *testing.T) {
	var now time.Duration
	l := newLaps(func() time.Duration { return now })
	rep := func(durs ...time.Duration) {
		l.start()
		for _, d := range durs {
			now += d
			l.lap()
		}
	}
	rep(5, 9, 4)
	if l.sum() != 18 {
		t.Errorf("sum of the repetition under way = %d, want 18", l.sum())
	}
	if err := l.keep(); err != nil {
		t.Fatal(err)
	}
	rep(7, 3, 6)
	if err := l.keep(); err != nil {
		t.Fatal(err)
	}
	if l.total() != 5+3+4 {
		t.Errorf("total = %d, want the fastest of each lap, 12", l.total())
	}
	l.start()
	now += 2
	l.lap()
	l.extend([]time.Duration{1, 1})
	if err := l.keep(); err != nil || l.total() != 2+1+1 {
		t.Errorf("after an extended repetition: total %d, err %v; want 4", l.total(), err)
	}
	rep(1, 1)
	if err := l.keep(); err == nil {
		t.Error("a repetition of two laps was folded into three")
	}
}

// smokeSeg sets up a small packet segment the way a -smoke run does.
func smokeSeg(t *testing.T, w workload, traced bool) *packetSeg {
	t.Helper()
	seg, err := setupPacket(w, 3, smokeEpisodes, t.TempDir(), traced, newLaps(wallClock))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seg.close)
	return seg
}

// Every pass replays the trace on a later capture clock against ground
// truth moved by the same amount, so every pass must score the same.
func TestShiftKeepsScoreAcrossPasses(t *testing.T) {
	w, _ := workloadByName("wsn-routing")
	seg := smokeSeg(t, w, false)
	first := seg.pass(false)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	for i, sc := range first.Scores {
		if sc.Detected == 0 {
			t.Fatalf("%s: nothing detected on the first timed pass", seg.recs[i].Scenario)
		}
	}
	for n := 2; n <= 4; n++ {
		p := seg.pass(false)
		if p.Err != nil {
			t.Fatal(p.Err)
		}
		if !reflect.DeepEqual(p.Scores, first.Scores) || !reflect.DeepEqual(p.Alerts, first.Alerts) {
			t.Errorf("pass %d scored %+v with alerts %v; pass 1 scored %+v with alerts %v", n, p.Scores, p.Alerts, first.Scores, first.Alerts)
		}
		// detectDelays re-implements the match rule ScoreAlerts keeps
		// private: one delay per detected instance pins the two together.
		detected := 0
		for _, sc := range p.Scores {
			detected += sc.Detected
		}
		if len(p.Delays) != detected {
			t.Errorf("pass %d: %d detection delays for %d detected instances", n, len(p.Delays), detected)
		}
	}
}

// The recording holds re-encoded raw frames; decoding them must give
// back what the sniffer saw.
func TestRecorderRoundTrip(t *testing.T) {
	for _, name := range []string{"icmp-flood", "sinkhole"} {
		type key struct {
			Src, Dst packet.NodeID
			Kind     packet.Kind
			Medium   packet.Medium
		}
		// The simulation is deterministic in its seed, so a second
		// build overhears the frames record() captured.
		sc, _ := eval.ScenarioByName(name)
		run := sc.Build(5, 3)
		var want []key
		run.Sniffer.Subscribe(func(c *packet.Captured) {
			if reencode(c) != nil {
				want = append(want, key{c.Src, c.Dst, c.Kind, c.Medium})
			}
		})
		run.Sim.Run(run.End)

		rec, err := record(name, 5, 3, func() {})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := trace.ReadAll(bytes.NewReader(rec.Data))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want) || rec.Frames != len(want) {
			t.Fatalf("%s: recorded %d frames (%d read back), the sniffer overheard %d", name, rec.Frames, len(recs), len(want))
		}
		for i, r := range recs {
			c, err := stack.Decode(r.Medium, r.Raw)
			if err != nil {
				t.Fatalf("%s: frame %d does not decode: %v", name, i, err)
			}
			if got := (key{c.Src, c.Dst, c.Kind, c.Medium}); got != want[i] {
				t.Fatalf("%s: frame %d decodes to %+v, was captured as %+v", name, i, got, want[i])
			}
		}
		if last := recs[len(recs)-1].Time; last.Sub(rec.First) != rec.Span {
			t.Errorf("%s: span %v, frames cover %v", name, rec.Span, last.Sub(rec.First))
		}
	}
}

func TestShardedWSNRefused(t *testing.T) {
	w := workload{Name: "wsn-sharded", Scenarios: []string{"sinkhole"}, Episodes: 10, Shards: 2}
	err := w.validate()
	if err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Errorf("802.15.4 trace with shards=2: validate() = %v, want a refusal that says why", err)
	}
	w.Shards = 1
	if err := w.validate(); err != nil {
		t.Errorf("the same trace on the synchronous path: %v", err)
	}
	for _, w := range workloads {
		if err := w.validate(); err != nil {
			t.Error(err)
		}
	}
}

// The smoke run of every workload must pass every correctness check and
// print the contract's line; so must the traced run, tried on the two
// workloads that reach the layers the others bypass (ingest, persist).
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.Shards < 2 && !w.Durable {
				continue
			}
			cfg := runConfig{Seed: 2, Seconds: 1, Traced: traced, Smoke: true, StateRoot: t.TempDir()}
			if traced {
				cfg.SpansPath = filepath.Join(cfg.StateRoot, "spans.json")
			}
			r, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Failures)
			}
			if p := r.Provenance; p.Go == "" || p.NProc < 1 || p.GoMaxProcs < 1 || p.CPU == "" || p.Commit == "" {
				t.Errorf("%s: provenance incomplete: %+v", w.Name, p)
			}
			checkContractLine(t, r)
			if traced {
				checkSpans(t, cfg.SpansPath)
			}
		}
	}
}

func checkContractLine(t *testing.T, r *report) {
	t.Helper()
	line, err := r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: contract line: %v", r.Workload, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("%s: contract line lacks a key: %s", r.Workload, line)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%s traced=%v: %d metrics printed, the table has %d", r.Workload, r.Traced, len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("%s: metric %s printed as %+v, want a value in %s", r.Workload, d.Name, m, d.Unit)
			continue
		}
		if math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("%s: metric %s is %v", r.Workload, d.Name, *m.Value)
		}
		if !r.Traced && *m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s is %v; they are chosen never to be 0", r.Workload, d.Name, *m.Value)
		}
	}
}

// The spans of one frame tile it: trace.read, proto.decode and
// node.handle are children of the frame span and end where the next
// begins.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	var spans []span
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		byID[sp.ID] = sp
		spans = append(spans, sp)
	}
	if len(spans) == 0 || len(spans)%7 != 0 {
		t.Fatalf("%s holds %d spans, want seven per frame", path, len(spans))
	}
	for i := 0; i < len(spans); i += 7 {
		f := spans[i : i+7]
		if f[0].Name != "frame" || f[0].Parent != 0 {
			t.Fatalf("span %d is %+v, want a root frame span", f[0].ID, f[0])
		}
		at := f[0].StartNs
		for _, sp := range f[1:4] {
			if sp.Parent != f[0].ID || sp.Frame != f[0].Frame || sp.StartNs != at || sp.EndNs < sp.StartNs {
				t.Fatalf("span %+v does not tile frame %+v", sp, f[0])
			}
			at = sp.EndNs
		}
		if at != f[0].EndNs {
			t.Fatalf("frame %d: children end at %d, the frame at %d", f[0].Frame, at, f[0].EndNs)
		}
		for _, sp := range f[4:] {
			if sp.Parent != 0 || sp.Frame != f[0].Frame || !strings.HasPrefix(sp.Name, "replica.") || sp.StartNs < f[0].EndNs {
				t.Fatalf("replica span %+v of frame %+v", sp, f[0])
			}
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics; the contract allows 128 and 16", len(b.PerLayer), len(b.EndToEnd))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (unit %q): names are unique and at most 64 characters, units at most 16", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", b.RunSeconds, runSeconds)
	}
	if !sort.StringsAreSorted(b.Paths) || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
}

func TestVerdict(t *testing.T) {
	lowerIsBetter := metricDef{Name: "frame_us_p50", Unit: "us", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "frames_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		d                      metricDef
		a1, a2, a3, b1, b2, b3 float64
		want                   string
	}{
		{lowerIsBetter, 99, 100, 101, 103, 104, 105, "ok"},
		{lowerIsBetter, 99, 100, 101, 111, 112, 113, "worse"},
		{lowerIsBetter, 99, 100, 101, 80, 81, 82, "ok"},
		{lowerIsBetter, 90, 100, 110, 95, 104, 112, "unresolved"},
		{higherIsBetter, 99, 100, 101, 87, 88, 89, "worse"},
		{higherIsBetter, 99, 100, 101, 111, 112, 113, "ok"},
	} {
		if got, _ := verdict(tc.d, tc.a1, tc.a2, tc.a3, tc.b1, tc.b2, tc.b3); got != tc.want {
			t.Errorf("%s a=%v b=%v: verdict %s, want %s", tc.d.Name, tc.a2, tc.b2, got, tc.want)
		}
	}
}
