// Command benchmark is the repo's end-to-end performance ledger: it
// records the paper's attack scenarios to raw frames, replays them
// raw frame → stack.Decode → Node.HandleCapture → alert through nodes
// built with public kalis.New options, runs the fleet gossip harness,
// checks the outputs, and prints every metric BENCHMARK.json names.
//
//	bash benchmark/run.sh --workload wifi-flood --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out runs.jsonl
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
//
// See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run, or \"all\" (see -list)")
		seed    = fs.Int64("seed", 1, "workload seed: scenario simulation and fleet topology")
		seconds = fs.Float64("seconds", runSeconds, "seconds of measurement per workload")
		traced  = fs.Int("trace", 0, "1 selects the traced run (per-layer metrics), 0 the end-to-end run")
		smoke   = fs.Bool("smoke", false, "a few per cent of full size and a fixed pass count: a correctness run, not a measurement")
		out     = fs.String("out", "", "append each run's full report to this file as one line of JSON; a traced run also writes <out>.<workload>.spans.json")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments: benchmark -compare a.jsonl b.jsonl")
		list    = fs.Bool("list", false, "list the workloads and why each exists")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-20s %s\n", w.Name, w.Why)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two report files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1, -seconds a positive number, and there are no positional arguments")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (try -list)\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	stateRoot, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	status := 0
	for _, w := range selected {
		cfg := runConfig{Seed: *seed, Seconds: *seconds, Traced: *traced == 1, Smoke: *smoke, StateRoot: stateRoot}
		if cfg.Traced && *out != "" {
			cfg.SpansPath = *out + "." + w.Name + ".spans.json"
		}
		r, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		r.print(os.Stdout)
		if *out != "" {
			if err := appendReport(*out, r); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		line, err := r.contractLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !r.Correct {
			status = 1
		}
	}
	return status
}

// scratchDir is where durable workloads keep their state: beside the
// binary, which run.sh builds into .bench_build/ of the checkout.
func scratchDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Dir(exe), nil
}
