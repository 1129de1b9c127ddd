// Command kalis-bench regenerates every table and figure of the
// paper's evaluation (§VI): Table I, Figure 3, Table II, Figure 8, and
// the reactivity (§VI-C), knowledge-sharing (§VI-D) and countermeasure
// (§VI-B1) experiments.
//
// Usage:
//
//	kalis-bench -exp all
//	kalis-bench -exp table2 -episodes 50 -seed 1
//	kalis-bench -exp fig8
package main

import (
	"flag"
	"fmt"
	"os"

	"kalis/internal/eval"
	"kalis/internal/taxonomy"
	"kalis/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kalis-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp           = flag.String("exp", "all", "experiment: table1|fig3|table2|fig8|reactivity|wormhole|countermeasure|overhead|delivery|fleet|all (fleet runs only when named)")
		episodes      = flag.Int("episodes", 0, "symptom instances per scenario (0 = paper default of 50)")
		seed          = flag.Int64("seed", 1, "simulation seed")
		rules         = flag.Int("snort-rules", 0, "snort-like community ruleset size (0 = default 3000)")
		telemetryAddr = flag.String("telemetry", "", "serve process-wide runtime metrics and pprof on this address while the experiments run")
	)
	flag.Parse()

	opts := eval.Options{Seed: *seed, Episodes: *episodes, SnortCommunityRules: *rules}
	out := os.Stdout

	if *telemetryAddr != "" {
		// Experiments build many short-lived nodes internally, so the
		// bench endpoint exposes process-wide runtime metrics (heap,
		// goroutines, GC) plus pprof — the knobs needed to profile an
		// experiment run; per-node packet metrics live on cmd/kalis.
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		srv, err := telemetry.ServeAdmin(*telemetryAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}

	want := func(name string) bool { return *exp == name || *exp == "all" }
	ran := false

	if want("table1") {
		ran = true
		fmt.Fprintln(out, "Table I — taxonomy of IoT attacks by target")
		taxonomy.WriteTableI(out)
		fmt.Fprintln(out)
	}
	if want("fig3") {
		ran = true
		fmt.Fprintln(out, "Figure 3 — relationships between network/device features and attacks")
		taxonomy.WriteFigure3(out)
		fmt.Fprintln(out)
	}
	if want("table2") {
		ran = true
		res, err := eval.Table2(opts)
		if err != nil {
			return err
		}
		eval.WriteTable2(out, res)
		fmt.Fprintln(out)
	}
	if want("fig8") {
		ran = true
		res, err := eval.Fig8(opts)
		if err != nil {
			return err
		}
		eval.WriteFig8(out, res)
		fmt.Fprintln(out)
	}
	if want("reactivity") {
		ran = true
		res, err := eval.Reactivity(opts)
		if err != nil {
			return err
		}
		eval.WriteReactivity(out, res)
		fmt.Fprintln(out)
	}
	if want("wormhole") {
		ran = true
		res, err := eval.KnowledgeSharing(opts)
		if err != nil {
			return err
		}
		eval.WriteKnowledgeSharing(out, res)
		fmt.Fprintln(out)
	}
	if want("countermeasure") {
		ran = true
		res, err := eval.Countermeasure(opts)
		if err != nil {
			return err
		}
		eval.WriteCountermeasure(out, res)
		fmt.Fprintln(out)
	}
	if want("overhead") {
		ran = true
		res, err := eval.ModuleOverhead(opts)
		if err != nil {
			return err
		}
		eval.WriteModuleOverhead(out, res)
		fmt.Fprintln(out)
	}
	if want("delivery") {
		ran = true
		res, err := eval.DeliveryImpact(opts)
		if err != nil {
			return err
		}
		eval.WriteDelivery(out, res)
		fmt.Fprintln(out)
	}
	// fleet is a wall-clock demo over large node counts, not an
	// evaluation table: it runs only when named, never as -exp all.
	if *exp == "fleet" {
		ran = true
		if err := runFleet(out, *seed); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
