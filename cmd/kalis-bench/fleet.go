package main

// The fleet experiment measures the collective layer at scale:
// anti-entropy digest gossip (delta sync, capped fan-out) on fleets of
// 1k-10k simulated nodes. Each row runs one fleet, then scrapes the run's own live /metrics
// endpoint for the kalis_collective_* totals — the table reports what
// an operator's Prometheus would see, not internal counters. A second
// table drills convergence under a half/half partition and a link-loss
// probability grid.

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"

	"kalis/internal/fleet"
	"kalis/internal/telemetry"
)

// fleetRow runs one configuration with a fresh registry and returns
// the result plus the scraped fleet-wide byte counter.
func fleetRow(cfg fleet.Config) (*fleet.Result, float64, error) {
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	srv, err := telemetry.ServeAdmin("127.0.0.1:0", reg)
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	res, err := fleet.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	scrape, err := httpGet("http://" + srv.Addr() + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	return res, promSum(scrape, `kalis_collective_bytes_sent_total`), nil
}

func runFleet(out io.Writer, seed int64) error {
	fmt.Fprintln(out, "Fleet scaling — anti-entropy digest gossip")
	fmt.Fprintln(out, "(bytes are live kalis_collective_bytes_sent_total scrapes; 30 updates/key churned over 3 gossip ticks)")
	fmt.Fprintf(out, "%-7s %-7s %-11s %-11s %-13s %-9s %-8s\n",
		"nodes", "rounds", "converged", "bytes(MB)", "bytes/node", "digests", "deltas")
	for _, nodes := range []int{1000, 4000, 10000} {
		res, bytes, err := fleetRow(fleet.Config{Nodes: nodes, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-7d %-7d %-11s %-11.2f %-13s %-9d %-8d\n",
			nodes, res.Rounds,
			fmt.Sprintf("%d/%d", res.ConvergedNodes, res.Nodes),
			bytes/1e6,
			fmt.Sprintf("%.1fKB", bytes/float64(nodes)/1e3),
			res.Digests, res.Deltas)
	}
	fmt.Fprintln(out)

	// Convergence curve at 1k under a 10-round half/half partition.
	res, _, err := fleetRow(fleet.Config{Nodes: 1000, Seed: seed, PartitionRounds: 10})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Convergence under partition — 1k nodes, halves split for 10 rounds, then healed")
	fmt.Fprintf(out, "%-7s %-11s %-11s\n", "round", "converged", "cum-MB")
	for _, s := range res.Curve {
		if s.Round <= 3 || s.Round%2 == 0 || s.Round == res.Rounds {
			fmt.Fprintf(out, "%-7d %-11d %-11.2f\n", s.Round, s.Converged, float64(s.Bytes)/1e6)
		}
	}
	fmt.Fprintln(out)

	// Fault matrix at 512 nodes: loss probability x partition drill.
	fmt.Fprintln(out, "Fault matrix — 512 nodes, rounds to full convergence")
	fmt.Fprintf(out, "%-9s %-11s %-9s %-11s\n", "loss", "partition", "rounds", "converged")
	for _, loss := range []float64{0, 0.05, 0.2} {
		for _, part := range []int{0, 8} {
			res, err := fleet.Run(fleet.Config{
				Nodes: 512, Seed: seed, LossProb: loss, PartitionRounds: part,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-9.2f %-11d %-9d %-11s\n",
				loss, part, res.Rounds, fmt.Sprintf("%d/%d", res.ConvergedNodes, res.Nodes))
		}
	}
	return nil
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// promSum sums the sample values of every exposition line whose metric
// (with labels) matches the pattern.
func promSum(exposition, pattern string) float64 {
	re := regexp.MustCompile(`(?m)^` + pattern + ` (\S+)$`)
	var sum float64
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		v, err := strconv.ParseFloat(m[len(m)-1], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}
