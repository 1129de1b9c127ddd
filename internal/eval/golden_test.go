package eval

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden lists under testdata")

// goldenEpisodes keeps the lists reviewable: a handful of episodes per
// run already covers first detection, cooldown expiry and re-detection.
const goldenEpisodes = 6

var goldenSeeds = []int64{1, 2, 3}

// systems are the two configurations every list is recorded under.
var systems = []struct {
	name    string
	factory func(sc Scenario, seed int64) Factory
}{
	{"knowledge-driven", func(Scenario, int64) Factory { return NewKalis("K1") }},
	{"traditional", TraditionalFor},
}

// replay builds the scenario, runs it through a fresh system and returns
// the alerts it raised plus the capture stream as a raw-frame trace.
func replay(t *testing.T, sc Scenario, factory Factory, seed int64) ([]module.Alert, []byte) {
	t.Helper()
	run := sc.Build(seed, goldenEpisodes)
	ids, err := factory(seed)
	if err != nil {
		t.Fatal(err)
	}
	defer ids.Close()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		if e, ok := c.Layers[0].(interface{ Encode() []byte }); ok {
			rec := trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: e.Encode()}
			if err := w.Write(&rec); err != nil {
				t.Fatal(err)
			}
		}
		ids.HandleCapture(c)
	})
	run.Sim.Run(run.End)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return ids.(*kalisIDS).Node().Alerts(), buf.Bytes()
}

// TestGoldenAlerts pins what Kalis says, not how often: every alert of
// every eval scenario (capture time, attack, module, victim, suspects,
// confidence, details) under both systems, against lists committed
// under testdata/alerts. Regenerate with -update after a change that is
// meant to move a verdict, and review the diff.
func TestGoldenAlerts(t *testing.T) {
	for _, sc := range AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, "# %s: every alert at %d episodes, per seed and system.\n", sc.Name, goldenEpisodes)
			fmt.Fprintf(&b, "# Regenerate: go test ./internal/eval -run TestGoldenAlerts -update\n")
			if sc.Name == "replication/static-mobile" {
				b.WriteString("# First recorded after netsim.JitterMover kept its nodes in slice order (PR 17):\n" +
					"# until then this scenario was not a function of its seed. Every other list was\n" +
					"# first recorded at PR 17's parent commit and passed unchanged across that PR.\n")
			}
			for _, seed := range goldenSeeds {
				for _, sys := range systems {
					alerts, _ := replay(t, sc, sys.factory(sc, seed), seed)
					fmt.Fprintf(&b, "\n== seed %d, %s: %d alerts\n", seed, sys.name, len(alerts))
					for _, a := range alerts {
						fmt.Fprintf(&b, "%s %s %s victim=%q suspects=%q conf=%.2f %s\n",
							a.Time.Format("15:04:05.000000"), a.Attack, a.Module, a.Victim, a.Suspects, a.Confidence, a.Details)
					}
				}
			}
			path := filepath.Join("testdata", "alerts", strings.ReplaceAll(sc.Name, "/", "_")+".golden")
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
				t.Errorf("alerts differ from %s (rerun with -update to inspect the diff); first divergence:\n%s",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff renders the first line on which two texts differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}

// TestScenariosAreAFunctionOfTheirSeed builds and runs every scenario
// twice per seed: the recorded raw-frame traces must be byte-identical
// and the alert lists equal. Anything less makes a per-seed comparison
// between two commits (or two deployment shapes) meaningless.
func TestScenariosAreAFunctionOfTheirSeed(t *testing.T) {
	for _, sc := range AllScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			for _, seed := range goldenSeeds {
				for _, sys := range systems {
					a1, t1 := replay(t, sc, sys.factory(sc, seed), seed)
					a2, t2 := replay(t, sc, sys.factory(sc, seed), seed)
					if !bytes.Equal(t1, t2) {
						t.Errorf("seed %d, %s: two builds recorded different traces (%d vs %d bytes)",
							seed, sys.name, len(t1), len(t2))
					}
					if !reflect.DeepEqual(a1, a2) {
						t.Errorf("seed %d, %s: two runs raised different alerts (%d vs %d)",
							seed, sys.name, len(a1), len(a2))
					}
				}
			}
		})
	}
}
