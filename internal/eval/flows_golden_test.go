package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"kalis/internal/flow"
)

// TestGoldenFlowRecords pins every flow record the knowledge-driven node
// exports on every eval scenario, seeds 1–3, in export order and at
// full float precision, against lists committed under
// testdata/flows. No alert reads a flow feature, so this is what keeps
// the flow table's output honest. Regenerate with -update.
func TestGoldenFlowRecords(t *testing.T) {
	for _, sc := range AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, "# %s: every exported flow record at %d episodes, per seed.\n", sc.Name, goldenEpisodes)
			fmt.Fprintf(&b, "# Regenerate: go test ./internal/eval -run TestGoldenFlowRecords -update\n")
			for _, seed := range goldenSeeds {
				recs := flowRecords(t, sc, seed)
				fmt.Fprintf(&b, "\n== seed %d: %d records\n", seed, len(recs))
				for _, r := range recs {
					fmt.Fprintf(&b, "%s %s pkts=%d bytes=%d first=%d last=%d",
						r.Key, r.Reason, r.Packets, r.Bytes, r.First.UnixNano(), r.Last.UnixNano())
					for _, v := range r.Features {
						fmt.Fprintf(&b, " %s=%s", v.Name, strconv.FormatFloat(v.V, 'g', -1, 64))
					}
					b.WriteByte('\n')
				}
			}
			path := filepath.Join("testdata", "flows", strings.ReplaceAll(sc.Name, "/", "_")+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("flow records differ from %s (rerun with -update to inspect the diff); first divergence:\n%s",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

// flowRecords replays a scenario through a fresh knowledge-driven node
// and returns every flow record it exported, the ones Close flushes
// included.
func flowRecords(t *testing.T, sc Scenario, seed int64) []flow.Record {
	t.Helper()
	run := sc.Build(seed, goldenEpisodes)
	ids, err := NewKalis("K1")(seed)
	if err != nil {
		t.Fatal(err)
	}
	node := ids.(*kalisIDS).Node()
	var recs []flow.Record
	node.OnFlowRecord(func(r flow.Record) { recs = append(recs, r) })
	run.Sniffer.Subscribe(ids.HandleCapture)
	run.Sim.Run(run.End)
	ids.Close()
	return recs
}
