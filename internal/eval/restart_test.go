package eval

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kalis/internal/core"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/persist"
	"kalis/internal/trace"
)

// restartEpisodes is the length of every restarted run: enough episodes
// that each half of the capture holds detections of its own.
const restartEpisodes = 8

// TestRestartVerdictUnchanged pins what a rebooted node says: every
// scenario, at every golden seed, replays through a knowledge-driven
// node with a state dir, which is closed at the capture's midpoint and
// opened again on the same dir for the second half. The recovery outcome
// and every alert of both halves (capture time, attack, module, victim,
// suspects, confidence, details) are compared with lists under
// testdata/restart. A change to what the state dir carries must leave
// them as they are; regenerate with -update only after a change meant
// to move a restarted node's verdict, and review the diff. Before each
// Close the state dir's log holds KB records only, whatever traffic the
// node took in.
func TestRestartVerdictUnchanged(t *testing.T) {
	for _, sc := range AllScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			var b strings.Builder
			fmt.Fprintf(&b, "# %s: every alert at %d episodes of a node restarted at the capture midpoint, per seed.\n", sc.Name, restartEpisodes)
			fmt.Fprintf(&b, "# Regenerate: go test ./internal/eval -run TestRestartVerdictUnchanged -update\n")
			for _, seed := range goldenSeeds {
				run := sc.Build(seed, restartEpisodes)
				var recs []trace.Record
				run.Sniffer.Subscribe(func(c *packet.Captured) {
					if e, ok := c.Layers[0].(trace.Frame); ok {
						recs = append(recs, trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: e.AppendEncode(nil)})
					}
				})
				run.Sim.Run(run.End)

				dir := t.TempDir()
				mid := len(recs) / 2
				first, _ := replayInto(t, dir, recs[:mid])
				second, outcome := replayInto(t, dir, recs[mid:])
				fmt.Fprintf(&b, "\n== seed %d: %d frames, restart after %d (%s): %d + %d alerts\n", seed, len(recs), mid, outcome, len(first), len(second))
				for _, a := range append(first, second...) {
					fmt.Fprintf(&b, "%s %s %s victim=%q suspects=%q conf=%.2f %s\n",
						a.Time.Format("15:04:05.000000"), a.Attack, a.Module, a.Victim, a.Suspects, a.Confidence, a.Details)
				}
			}
			path := filepath.Join("testdata", "restart", strings.ReplaceAll(sc.Name, "/", "_")+".golden")
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
				t.Errorf("restarted alerts differ from %s (rerun with -update to inspect the diff); first divergence:\n%s",
					path, firstDiff(got, string(want)))
			}
		})
	}
}

// replayInto opens a knowledge-driven node on the state dir, replays
// recs through it in line and closes it. It returns the node's alerts
// and how its recovery classified.
func replayInto(t *testing.T, dir string, recs []trace.Record) ([]module.Alert, string) {
	t.Helper()
	node, err := core.New(core.Config{NodeID: "K1", KnowledgeDriven: true, WindowSize: 2048, InstallAll: true, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	outcome := string(node.Persistence().Outcome())
	for i := range recs {
		c, err := recs[i].Decode()
		if err != nil {
			t.Fatal(err)
		}
		node.HandleCapture(c)
	}
	if err := node.Persistence().Err(); err != nil {
		t.Fatal(err)
	}
	wantKnowledgeOnly(t, dir)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	return node.Alerts(), outcome
}

// wantKnowledgeOnly walks the frames of the state log in dir — after
// its 5-byte header, each a uvarint length, the payload and a CRC-32,
// up to the first zero length of a mapped log's preallocated tail — and
// fails on any whose op byte is not a KB put or delete.
func wantKnowledgeOnly(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(persist.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for at, i := 5, 0; at < len(raw); i++ {
		n, l := binary.Uvarint(raw[at:])
		if n == 0 || l <= 0 || at+l+int(n)+4 > len(raw) {
			return
		}
		if op := raw[at+l]; op != knowledge.OpPut && op != knowledge.OpDelete {
			t.Fatalf("state log frame %d has op %d: a state dir holds KB records only", i, op)
		}
		at += l + int(n) + 4
	}
}
