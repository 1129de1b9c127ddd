// Command kalis runs a Kalis IDS node against one of the built-in
// simulated IoT scenarios, or replays a recorded trace file through
// it, printing knowledge discoveries, module activations, and alerts
// as they happen. With -telemetry the node serves its runtime metrics
// (Prometheus exposition, JSON snapshot, pprof) on an HTTP admin
// endpoint, and keeps it up after the run until interrupted so the
// final state can be scraped.
//
// Usage:
//
//	kalis -scenario icmp-flood/single-hop -episodes 5
//	kalis -scenario selective-forwarding/wsn -verbose
//	kalis -trace capture.ktrc -telemetry 127.0.0.1:9090
//	kalis -scenario smurf/multi-hop -config my.kalis.conf
//	kalis -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kalis"
	"kalis/internal/eval"
)

// syncWriter serializes output lines: with -shards > 1 alert and
// knowledge callbacks fire from shard worker goroutines concurrently.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kalis:", err)
		os.Exit(1)
	}
}

// telemetryHook, when set (by tests), runs after traffic has flowed
// and before the admin endpoint shuts down, with the endpoint's bound
// address.
var telemetryHook func(addr string)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kalis", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		scenario      = fs.String("scenario", "", "built-in scenario to simulate (see -list)")
		traceFile     = fs.String("trace", "", "replay a recorded .ktrc trace instead of simulating")
		configFile    = fs.String("config", "", "Kalis configuration file (Fig. 6 grammar)")
		episodes      = fs.Int("episodes", 5, "attack episodes to simulate")
		seed          = fs.Int64("seed", 1, "simulation seed")
		verbose       = fs.Bool("verbose", false, "print knowledge discoveries and module activations")
		trad          = fs.Bool("traditional", false, "run as the traditional-IDS baseline (no knowledge)")
		list          = fs.Bool("list", false, "list built-in scenarios and exit")
		telemetryAddr = fs.String("telemetry", "", "serve the runtime-telemetry admin endpoint on this address (e.g. 127.0.0.1:9090)")
		stateDir      = fs.String("state-dir", "", "persist the node's Knowledge Base in this directory and warm-restart from it (empty: no persistence)")
		shards        = fs.Int("shards", 1, "ingestion shards (default 1: synchronous in-line dispatch; n > 1 builds min(n, 3) shards, one per medium key — 802.15.4, WiFi/wired, BLE — and raises the in-line alerts on every scenario)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stdout = &syncWriter{w: stdout}

	if *list {
		for _, sc := range eval.AllScenarios() {
			fmt.Fprintf(stdout, "  %-28s attack=%s medium=%s\n", sc.Name, sc.Attack, sc.Medium)
		}
		return nil
	}

	opts := []kalis.Option{kalis.WithNodeID("K1")}
	if *trad {
		opts = append(opts, kalis.WithoutKnowledge())
	}
	if *configFile != "" {
		text, err := os.ReadFile(*configFile)
		if err != nil {
			return err
		}
		opts = append(opts, kalis.WithConfig(string(text)))
	}
	if *stateDir != "" {
		opts = append(opts, kalis.WithStateDir(*stateDir))
	}
	if *shards > 1 {
		// Scenario and trace runs are offline replay: lossless
		// backpressure (every frame observed), paced so no shard
		// worker races whole attack episodes ahead of the knowledge
		// the other shards are still deriving.
		opts = append(opts, kalis.WithShards(*shards),
			kalis.WithIngestBlocking(),
			kalis.WithIngestMaxSkew(time.Second))
	}
	node, err := kalis.New(opts...)
	if err != nil {
		return err
	}
	defer node.Close()
	if *stateDir != "" {
		fmt.Fprintf(stdout, "state: %s restart from %s\n", node.RecoveryOutcome(), *stateDir)
	}

	if *telemetryAddr != "" {
		srv, err := node.ServeTelemetry(*telemetryAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: serving http://%s/metrics\n", srv.Addr())
		if telemetryHook != nil {
			defer telemetryHook(srv.Addr())
		}
	}

	var alerts atomic.Int64
	node.OnAlert(func(a kalis.Alert) {
		alerts.Add(1)
		fmt.Fprintf(stdout, "%s ALERT %-20s victim=%-14s suspects=%v conf=%.2f — %s\n",
			a.Time.Format("15:04:05.000"), a.Attack, a.Victim, a.Suspects, a.Confidence, a.Details)
	})
	if *verbose {
		node.OnKnowledge(func(kg kalis.Knowgget) {
			if strings.HasPrefix(kg.Label, "SignalStrength") {
				return // too chatty for a console
			}
			entity := ""
			if kg.Entity != "" {
				entity = "@" + kg.Entity
			}
			fmt.Fprintf(stdout, "              KNOWLEDGE %s$%s%s = %q\n", kg.Creator, kg.Label, entity, kg.Value)
		})
	}

	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		// A corrupt record ends the replay; what came before it was
		// handled, so its counts are printed either way.
		replayed, skipped, err := node.ReplayTrace(f)
		node.DrainIngest()
		fmt.Fprintf(stdout, "replayed %d frames (%d skipped), %d alerts\n", replayed, skipped, alerts.Load())
		if err != nil {
			return err
		}

	case *scenario != "":
		sc, ok := eval.ScenarioByName(*scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q (try -list)", *scenario)
		}
		run := sc.Build(*seed, *episodes)
		run.Sniffer.Subscribe(node.HandleCapture)
		fmt.Fprintf(stdout, "simulating %s with %d attack episodes...\n", sc.Name, *episodes)
		run.Sim.Run(run.End)
		node.DrainIngest()
		fmt.Fprintf(stdout, "\ncaptured %d frames, raised %d alerts\n", run.Sniffer.Captures, alerts.Load())
		fmt.Fprintf(stdout, "active modules at end: %s\n", strings.Join(node.ActiveModules(), ", "))

	default:
		return fmt.Errorf("pass -scenario, -trace, or -list")
	}

	// Scenario runs finish in milliseconds; if the operator asked for
	// the admin endpoint, hold it open so it can actually be scraped.
	// Tests drive the endpoint through telemetryHook instead.
	if *telemetryAddr != "" && telemetryHook == nil {
		fmt.Fprintf(stdout, "telemetry: endpoint stays up — Ctrl-C to exit\n")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		signal.Stop(ch)
	}
	return nil
}
