package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readReports loads an -out file: one report per line.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := &report{}
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != reportSchema {
			return nil, fmt.Errorf("%s:%d: report schema %d, want %d", path, line, r.Schema, reportSchema)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// side is one file's untraced, full-size runs of one workload.
type side struct {
	runs              []*report
	attempted, failed int
}

func sidesOf(reports []*report) map[string]*side {
	out := map[string]*side{}
	for _, r := range reports {
		if r.Traced || r.Smoke {
			continue
		}
		s := out[r.Workload]
		if s == nil {
			s = &side{}
			out[r.Workload] = s
		}
		s.runs = append(s.runs, r)
		s.attempted += r.Attempted
		s.failed += r.Failed
	}
	return out
}

// summary is a metric's median and quartiles over a side's runs. With a
// single run the quartiles are that run's own, over its timed passes.
func (s *side) summary(metric string) (q1, q2, q3 float64) {
	if len(s.runs) == 1 {
		st := s.runs[0].EndToEnd[metric]
		return st.Q1, st.Value, st.Q3
	}
	vs := make([]float64, len(s.runs))
	for i, r := range s.runs {
		vs[i] = r.EndToEnd[metric].Value
	}
	return quartiles(vs)
}

// verdict of b against a for one metric: "worse" when b's median is
// worse than a's by more than the bound; otherwise "unresolved" when
// either side's quartile range is wider than the bound (the runs cannot
// tell a change of that size from noise), else "ok".
func verdict(d metricDef, a1, a2, a3, b1, b2, b3 float64) (string, float64) {
	if a2 == 0 {
		return "unresolved", 0
	}
	delta := (b2 - a2) / math.Abs(a2)
	worse := delta
	if d.Better == higher {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return "worse", delta
	case math.Max(a3-a1, b3-b1)/math.Abs(a2) > d.Bound:
		return "unresolved", delta
	}
	return "ok", delta
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the change, the bound and the verdict. The exit status is 1
// when any metric is worse or b failed a larger share of its operations.
func compareFiles(w io.Writer, pathA, pathB string) int {
	ra, err := readReports(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s: no reports", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	rb, err := readReports(pathB)
	if err == nil && len(rb) == 0 {
		err = fmt.Errorf("%s: no reports", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	a, b := sidesOf(ra), sidesOf(rb)
	status := 0
	fmt.Fprintf(w, "a: %s (commit %s, %s)\nb: %s (commit %s, %s)\n",
		pathA, ra[0].Provenance.Commit, ra[0].Provenance.CPU, pathB, rb[0].Provenance.Commit, rb[0].Provenance.CPU)
	for _, wl := range workloads {
		sa, sb := a[wl.Name], b[wl.Name]
		if sa == nil || sb == nil {
			continue
		}
		fmt.Fprintf(w, "%s  (a: %d runs, b: %d runs)\n", wl.Name, len(sa.runs), len(sb.runs))
		for _, d := range endToEnd {
			a1, a2, a3 := sa.summary(d.Name)
			b1, b2, b3 := sb.summary(d.Name)
			v, delta := verdict(d, a1, a2, a3, b1, b2, b3)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "  %-24s a %14.4f  b %14.4f %-5s %+7.2f%%  bound %4.1f%%  spread a %5.2f%% b %5.2f%%  %s\n",
				d.Name, a2, b2, d.Unit, 100*delta, 100*d.Bound, 100*ratio(a3-a1, math.Abs(a2)), 100*ratio(b3-b1, math.Abs(b2)), v)
		}
		fa, fb := ratio(float64(sa.failed), float64(sa.attempted)), ratio(float64(sb.failed), float64(sb.attempted))
		mark := "ok"
		if fb > fa {
			mark, status = "worse", 1
		}
		fmt.Fprintf(w, "  %-24s a %d/%d  b %d/%d  %s\n", "failed/attempted", sa.failed, sa.attempted, sb.failed, sb.attempted, mark)
	}
	return status
}
