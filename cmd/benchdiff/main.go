// Command benchdiff guards the hot-path performance budget: it re-runs
// the benchmarks recorded in bench_baseline.json and fails when any of
// them regressed by more than the configured threshold in ns/op, or —
// in the suites that record allocs_per_op — allocates more per
// operation than the baseline at all.
//
// Each baseline suite names a package and an anchored -bench regex;
// benchdiff executes `go test -run ^$ -bench <regex> -benchmem -count N`
// for the suite and keeps the minimum ns/op and allocs/op per benchmark
// across the N runs — the minimum is the least noisy estimator of the
// true cost, since scheduling jitter only ever adds time. The baseline
// also records where it was measured (Go version, CPU model,
// GOMAXPROCS); comparing on another host prints a note, because ns/op
// does not travel.
//
// Usage:
//
//	go run ./cmd/benchdiff                # compare against the baseline
//	go run ./cmd/benchdiff -update        # re-measure and rewrite it
//	go run ./cmd/benchdiff -threshold 0.1 # tighten the gate
//
// Exit status: 0 when every benchmark is within budget, 1 on
// regression or missing benchmark, 2 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baseline is the on-disk format of bench_baseline.json.
type baseline struct {
	// Count is how many times each suite is run; the per-benchmark
	// minimum across runs is compared.
	Count int `json:"count"`
	// Threshold is the tolerated fractional ns/op increase (0.25 =
	// +25%) before the gate fails.
	Threshold float64 `json:"threshold"`
	// Env is where the recorded numbers were measured; rewritten by
	// -update.
	Env    *env    `json:"env,omitempty"`
	Suites []suite `json:"suites"`
}

// env identifies a measurement host as far as it moves ns/op.
type env struct {
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type suite struct {
	// Package is the go test target, e.g. "./internal/telemetry".
	Package string `json:"package"`
	// Bench is the anchored regex handed to -bench.
	Bench string `json:"bench"`
	// NsPerOp maps canonical benchmark names (sub-benchmarks
	// included, GOMAXPROCS suffix stripped) to the recorded minimum.
	NsPerOp map[string]float64 `json:"ns_per_op"`
	// AllocsPerOp, when present, gates allocs/op exactly: any increase
	// over the recorded minimum fails, and -update re-records it. A
	// suite whose count is not deterministic (the gossip round draws a
	// random fan-out and lands on 25 or 26) leaves the key out and is
	// compared in ns/op alone; opt a suite in with an empty object.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// result is one benchmark's minima across the suite's runs.
type result struct {
	ns, allocs float64
}

func main() {
	var (
		baselinePath = flag.String("baseline", "bench_baseline.json", "baseline file")
		update       = flag.Bool("update", false, "re-measure and rewrite the baseline instead of comparing")
		count        = flag.Int("count", 0, "override the baseline run count")
		threshold    = flag.Float64("threshold", 0, "override the baseline regression threshold")
		benchtime    = flag.String("benchtime", "", "forwarded to go test -benchtime")
	)
	flag.Parse()

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		fatalf("benchdiff: %v", err)
	}
	if *count > 0 {
		base.Count = *count
	}
	if *threshold > 0 {
		base.Threshold = *threshold
	}

	failed := false
	here := env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for i := range base.Suites {
		s := &base.Suites[i]
		measured, cpu, err := runSuite(s, base.Count, *benchtime)
		if err != nil {
			fatalf("benchdiff: %s: %v", s.Package, err)
		}
		here.CPU = cpu
		if *update {
			s.NsPerOp = make(map[string]float64, len(measured))
			if s.AllocsPerOp != nil {
				s.AllocsPerOp = make(map[string]float64, len(measured))
			}
			for name, r := range measured {
				s.NsPerOp[name] = r.ns
				if s.AllocsPerOp != nil {
					s.AllocsPerOp[name] = r.allocs
				}
			}
			continue
		}
		if !compareSuite(s, measured, base.Threshold) {
			failed = true
		}
	}
	if !*update && base.Env != nil && *base.Env != here {
		fmt.Printf("note: baseline recorded on %+v, this host is %+v: ns/op verdicts compare two machines\n", *base.Env, here)
	}

	if *update {
		base.Env = &here
		if err := writeBaseline(*baselinePath, base); err != nil {
			fatalf("benchdiff: %v", err)
		}
		fmt.Printf("wrote %s\n", *baselinePath)
		return
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: all benchmarks within %+.0f%% of baseline\n", base.Threshold*100)
}

func loadBaseline(path string) (*baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Count <= 0 {
		b.Count = 5
	}
	if b.Threshold <= 0 {
		b.Threshold = 0.25
	}
	return &b, nil
}

func writeBaseline(path string, b *baseline) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runSuite executes the suite's benchmarks Count times and returns the
// per-benchmark minima and the CPU model go test reported.
func runSuite(s *suite, count int, benchtime string) (map[string]result, string, error) {
	args := []string{"test", "-run", "^$", "-bench", s.Bench, "-benchmem", "-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, s.Package)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	measured, cpu := parseBenchOutput(string(out))
	if len(measured) == 0 {
		return nil, "", fmt.Errorf("no benchmark results for -bench %s (output: %q)", s.Bench, string(out))
	}
	return measured, cpu, nil
}

// procSuffix is the trailing -GOMAXPROCS the bench framework appends to
// every benchmark name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts the minimum ns/op and allocs/op per
// benchmark, and the "cpu:" header, from `go test -bench -benchmem`
// output lines of the form:
//
//	cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
//	BenchmarkName/sub-8   12345   92.36 ns/op   16 B/op   1 allocs/op
//
// A line without an allocs/op column (no -benchmem) leaves allocs at -1.
func parseBenchOutput(out string) (map[string]result, string) {
	min := make(map[string]result)
	cpu := ""
	for _, line := range strings.Split(out, "\n") {
		if model, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(model)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := result{ns: -1, allocs: -1}
		for i := 2; i < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				r.ns = v
			case "allocs/op":
				r.allocs = v
			}
		}
		if r.ns < 0 {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		if prev, ok := min[name]; ok {
			r.ns = math.Min(r.ns, prev.ns)
			r.allocs = math.Min(r.allocs, prev.allocs)
		}
		min[name] = r
	}
	return min, cpu
}

// compareSuite reports the per-benchmark verdicts and returns false if
// any baseline benchmark regressed beyond threshold in ns/op, allocates
// more than its recorded allocs/op, or disappeared.
func compareSuite(s *suite, measured map[string]result, threshold float64) bool {
	ok := true
	names := make([]string, 0, len(s.NsPerOp))
	for name := range s.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := s.NsPerOp[name]
		got, found := measured[name]
		baseAllocs, gated := s.AllocsPerOp[name]
		switch {
		case !found:
			fmt.Printf("MISSING  %-55s baseline %10.2f ns/op, benchmark no longer runs\n", name, base)
			ok = false
		case base > 0 && got.ns > base*(1+threshold):
			fmt.Printf("REGRESS  %-55s %10.2f -> %10.2f ns/op (%+.1f%%, budget %+.0f%%)\n",
				name, base, got.ns, (got.ns/base-1)*100, threshold*100)
			ok = false
		case gated && got.allocs > baseAllocs:
			fmt.Printf("ALLOCS   %-55s %10.0f -> %10.0f allocs/op (any increase fails)\n", name, baseAllocs, got.allocs)
			ok = false
		default:
			delta := 0.0
			if base > 0 {
				delta = (got.ns/base - 1) * 100
			}
			allocs := ""
			if gated {
				allocs = fmt.Sprintf(", %.0f -> %.0f allocs/op", baseAllocs, got.allocs)
			}
			fmt.Printf("ok       %-55s %10.2f -> %10.2f ns/op (%+.1f%%)%s\n", name, base, got.ns, delta, allocs)
		}
	}
	for name, r := range measured {
		if _, known := s.NsPerOp[name]; !known {
			fmt.Printf("NEW      %-55s %10.2f ns/op (not in baseline; run -update to record)\n",
				name, r.ns)
		}
	}
	return ok
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
