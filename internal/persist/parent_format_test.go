package persist_test

import (
	"bytes"
	"maps"
	"os"
	"testing"

	"kalis/internal/core"
	"kalis/internal/persist"
)

// TestParentFormatStateDir: a state dir written while the state dir
// also held the Data Store window — the window as a snapshot section
// and, with a log, as window chunks among the log's KB records and in a
// window.kwin — opens warm with its knowledge, every KB record of the
// log applied in order, and an empty window. A node that crashes right
// after such an Open leaves the dir as it found it, so the next Open is
// the same; the first checkpoint — at Close, whether or not the node
// learned something — leaves a log without a window frame and a
// snapshot without a window section.
func TestParentFormatStateDir(t *testing.T) {
	for _, tc := range []struct {
		name    string
		withLog bool
	}{{"section only", false}, {"section and log", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			persist.WriteParentStateDir(t, dir, tc.withLog)
			want := persist.WantParentKB(tc.withLog)
			open := func(when string) *core.Kalis {
				t.Helper()
				node, err := core.New(core.Config{NodeID: "K1", StateDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[string]string)
				for _, k := range node.KB().Snapshot() {
					got[k.Key()] = k.Value
				}
				if out := node.Persistence().Outcome(); out != persist.OutcomeWarm || !maps.Equal(got, want) {
					t.Fatalf("%s: %s with %v, want warm with %v", when, out, got, want)
				}
				if !node.KB().IsStatic("Mobility") {
					t.Errorf("%s: the static mark of Mobility is lost", when)
				}
				if n := len(node.Recent(0)); n != 0 {
					t.Errorf("%s: the window holds %d frames, want none", when, n)
				}
				return node
			}

			// kbOnly closes the node and checks that the checkpoint at
			// Close left the dir in the current format.
			kbOnly := func(node *core.Kalis, when string) {
				t.Helper()
				if err := node.Close(); err != nil {
					t.Fatal(err)
				}
				if ops := persist.LogOps(t, dir); len(ops) != 0 {
					t.Errorf("after %s the log holds frames of ops %v, want its header alone", when, ops)
				}
				raw, err := os.ReadFile(persist.SnapshotPath(dir))
				if err != nil {
					t.Fatal(err)
				}
				if snap, err := persist.DecodeSnapshot(bytes.NewReader(raw)); err != nil || !bytes.Equal(persist.EncodeSnapshotBytes(snap), raw) {
					t.Errorf("after %s the snapshot is %d bytes, not its KB section alone (err %v)", when, len(raw), err)
				}
			}

			_ = open("the first Open") // crash: abandoned before any checkpoint
			node := open("the Open after a crash")
			if !tc.withLog {
				// The log holds its header alone, but the snapshot
				// still carries the window section: it is not current,
				// so even an idle node's Close rewrites it.
				kbOnly(node, "an idle Close")
				node = open("the Open after an idle Close")
			}
			node.KB().Put("Multihop", "true")
			want["K1$Multihop"] = "true"
			kbOnly(node, "the checkpoint at Close")
			if err := open("the Open after the checkpoint").Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
