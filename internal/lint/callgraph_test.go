package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraphGolden pins the devirtualized packet-path call graph:
// every method named HandlePacket under the production root scope,
// walked through the production walk scope (flow, the protocol
// substrates, the capture envelope) exactly as the hot-path rules walk
// it. A wiring change that adds, drops or reroutes an edge shows up as
// a golden diff in review instead of a silent analysis gap.
//
// Regenerate after intentional graph changes with either
//
//	go run ./cmd/kalislint -callgraph HandlePacket > internal/lint/testdata/callgraph_handlepacket.golden
//	UPDATE_GOLDEN=1 go test ./internal/lint -run TestCallGraphGolden
func TestCallGraphGolden(t *testing.T) {
	// Load the bare module, not the shared fixture-augmented target:
	// fixture packages implement in-module interfaces (flow.Tracker,
	// callback types) and would leak class-hierarchy edges into
	// the dump that `kalislint -callgraph` never sees.
	target, err := Load(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	got := DumpMethodGraph(target, "HandlePacket", PacketPathRoots, PacketPathWalk)
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
	// the ring worker (through the ingest.Sink interface). And the walk
	// from the frame decoder — a function root — must reach every
	// layer's one decoding body, the frame allocation (behind an
	// explicit generic instantiation) and the identity table. Evidence
	// is folded in by the flow table, so the forwarding watch's Observe
	// must be on the dispatch walk too (through flow.Tracker). Alerts,
	// flow records and knowledge changes leave through the node's
	// fan-outs: a method value of a generic type, handed to a callback.
	dispatch := []string{
		"(*kalis/internal/core.shard).HandleBatch",
		"(*kalis/internal/core/module.Manager).HandleBatch",
		"(*kalis/internal/core/module.Manager).invoke",
		"(*kalis/internal/flow.Table).Update",
		"(*kalis/internal/flow.ForwardingWatch).Observe",
		"(*kalis/internal/core.fanout[T]).publish",
	}
	reach := map[string][]string{
		"HandleCapture": dispatch,
		"drainShard":    dispatch,
		"Decode": {
			"kalis/internal/proto/stack.newFrame",
			"kalis/internal/proto/stack.intern",
			"kalis/internal/proto/stack.render",
		},
	}
	for _, layer := range []string{"ble", "icmp", "ieee802154", "ipv4", "sixlowpan", "tcp", "udp", "wifi", "zigbee"} {
		reach["Decode"] = append(reach["Decode"], "kalis/internal/proto/"+layer+".DecodeInto")
	}
	for root, nodes := range reach {
		dump := DumpMethodGraph(target, root, PacketPathRoots, PacketPathWalk)
		for _, node := range nodes {
			if !strings.Contains(dump, "\n"+node+"\n") {
				t.Errorf("hot-path walk from %s does not reach %s", root, node)
			}
		}
	}
}
