package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraphGolden pins the devirtualized packet-path call graph:
// every method named HandlePacket rooted in internal/core, walked
// through internal/flow exactly as the hot-path rules walk it. A
// wiring change that adds, drops or reroutes an edge shows up as a
// golden diff in review instead of a silent analysis gap.
//
// Regenerate after intentional graph changes with either
//
//	go run ./cmd/kalislint -callgraph HandlePacket > internal/lint/testdata/callgraph_handlepacket.golden
//	UPDATE_GOLDEN=1 go test ./internal/lint -run TestCallGraphGolden
func TestCallGraphGolden(t *testing.T) {
	// Load the bare module, not the shared fixture-augmented target:
	// fixture packages implement in-module interfaces (flow.Tracker,
	// event handler types) and would leak class-hierarchy edges into
	// the dump that `kalislint -callgraph` never sees.
	target, err := Load(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	got := DumpMethodGraph(target, "HandlePacket",
		PathScope("kalis/internal/core"),
		PathScope("kalis/internal/core", "kalis/internal/flow"))
	if got == "" {
		t.Fatal("empty HandlePacket call graph: roots not found")
	}

	golden := filepath.Join("testdata", "callgraph_handlepacket.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("HandlePacket call graph drifted from %s\n"+
			"diff it against `go run ./cmd/kalislint -callgraph HandlePacket` and, "+
			"if the wiring change is intentional, regenerate with UPDATE_GOLDEN=1",
			golden)
	}

	// The one dispatch body must be on the hot-path walk from both
	// executors' roots: the in-line entry point (a static call chain) and
	// the ring worker (through the ingest.Sink interface), under the
	// production hotpath/hotalloc scopes.
	roots := PathScope("kalis/internal/core", "kalis/internal/ingest")
	walk := PathScope("kalis/internal/core", "kalis/internal/flow", "kalis/internal/ingest")
	for _, root := range []string{"HandleCapture", "drainShard"} {
		dump := DumpMethodGraph(target, root, roots, walk)
		for _, node := range []string{
			"\n(*kalis/internal/core.shard).HandleBatch\n",
			"\n(*kalis/internal/core/module.Manager).HandleBatch\n",
			"\n(*kalis/internal/core/module.Manager).invoke\n",
		} {
			if !strings.Contains(dump, node) {
				t.Errorf("hot-path walk from %s does not reach %s", root, strings.TrimSpace(node))
			}
		}
	}
}
