package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// reportSchema versions the -out format.
const reportSchema = 1

// stat is one reported metric: the headline value with the quartiles,
// count and values of the run's timed samples (per pass, repetition or
// set-up) beside it. The value is the samples' median, except for the
// timings built from fastest laps (see laps), which lie below them.
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// medianStat reports the median of per-pass (or per-repetition) samples.
func medianStat(unit string, samples []float64) stat {
	q1, q2, q3 := quartiles(samples)
	return stat{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

// valueStat reports a single figure that is not a median of samples.
func valueStat(unit string, v float64) stat {
	return stat{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// provenance says where and on what a run was measured; numbers from
// different hosts are not comparable (ROADMAP "baseline drift").
type provenance struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func readProvenance() provenance {
	p := provenance{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return p
}

// scenarioReport is one recorded scenario of a run's packet segment.
type scenarioReport struct {
	Name          string  `json:"name"`
	Frames        int     `json:"frames"`
	Instances     int     `json:"instances"`
	SpanS         float64 `json:"span_s"`
	AlertsPass0   int     `json:"alerts_pass0"`
	DetectionRate float64 `json:"detection_rate"`
	AlertAccuracy float64 `json:"alert_accuracy"`
}

// report is one run of one workload, as -out appends it (one JSON
// object per line) and -compare reads it.
type report struct {
	Schema     int              `json:"schema"`
	Workload   string           `json:"workload"`
	Why        string           `json:"why"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Smoke      bool             `json:"smoke"`
	Provenance provenance       `json:"provenance"`
	Scenarios  []scenarioReport `json:"scenarios"`
	Passes     int              `json:"passes"`
	FleetNodes int              `json:"fleet_nodes"`
	FleetReps  int              `json:"fleet_reps"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Failures   []string         `json:"failures,omitempty"`
	EndToEnd   map[string]stat  `json:"end_to_end"`
	PerLayer   map[string]stat  `json:"per_layer,omitempty"`
}

// contractLine is the last line of standard output: exactly the keys
// the benchmark contract names. An untraced run carries every
// end-to-end metric, a traced run every per-layer metric.
func (r *report) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEnd, r.EndToEnd
	if r.Traced {
		defs, from = perLayer, r.PerLayer
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		s, ok := from[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out[d.Name] = value{Value: s.Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
}

// print writes the human-readable table of a run.
func (r *report) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "workload %s  seed %d  %.0fs  traced=%v smoke=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Smoke)
	fmt.Fprintf(w, "  commit %s  %s  nproc %d  GOMAXPROCS %d  cpu %q\n", p.Commit, p.Go, p.NProc, p.GoMaxProcs, p.CPU)
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "  scenario %-28s %7d frames %4d instances %7.0fs span  pass-0 alerts %d  detection %.3f accuracy %.3f\n",
			s.Name, s.Frames, s.Instances, s.SpanS, s.AlertsPass0, s.DetectionRate, s.AlertAccuracy)
	}
	fmt.Fprintf(w, "  %d timed passes, %d timed fleet repetitions of %d nodes; attempted %d failed %d\n",
		r.Passes, r.FleetReps, r.FleetNodes, r.Attempted, r.Failed)
	row := func(d metricDef, s stat) {
		fmt.Fprintf(w, "  %-40s %14.4f %-6s samples: q1 %14.4f q3 %14.4f n %d\n", d.Name, s.Value, d.Unit, s.Q1, s.Q3, s.N)
	}
	for _, d := range endToEnd {
		row(d, r.EndToEnd[d.Name])
	}
	if r.Traced {
		for _, d := range perLayer {
			row(d, r.PerLayer[d.Name])
		}
		// The three spans tile the frame, so their sum is the traced
		// frame; against the untraced control passes it shows what the
		// extra clock reads cost.
		parts := r.PerLayer["trace.read_ns"].Value + r.PerLayer["proto.decode_ns"].Value + r.PerLayer["module.handle_ns"].Value
		fmt.Fprintf(w, "  parts: trace.read + proto.decode + node.handle = %.0f ns per frame, %+.1f %% against the control passes' mean frame\n",
			parts, r.PerLayer["trace.overhead_pct"].Value)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// appendReport appends the run to path as one line of JSON.
func appendReport(path string, r *report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
