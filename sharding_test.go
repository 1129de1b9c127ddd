package kalis

// Regression tests for the sharded ingestion pipeline (internal/ingest
// + core wiring): per-source capture order must survive the trip
// through the shard rings and workers of a node with one shard per
// medium, and shutdown must account for every packet — delivered +
// dropped == enqueued, with zero accepted packets lost on drain
// (mirroring the event bus' own TestAsyncCloseAccounting). Run with
// -race: the ring's memory model claims are exactly what the race
// detector checks here.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/netsim"
	"kalis/internal/packet"
)

// seqRecorder collects (source → sequence numbers in arrival order)
// across all shard module instances. The lock serializes appends from
// different shard workers; a source's packets share its medium and so
// arrive via a single shard worker, and the recorded order is dispatch
// order.
type seqRecorder struct {
	mu   sync.Mutex
	seqs map[packet.NodeID][]int
	// gate, when set, holds every packet until it is closed.
	gate chan struct{}
}

func (r *seqRecorder) record(c *packet.Captured) {
	if r.gate != nil {
		<-r.gate
	}
	seq := int(c.Payload[0])<<8 | int(c.Payload[1])
	r.mu.Lock()
	r.seqs[c.Src] = append(r.seqs[c.Src], seq)
	r.mu.Unlock()
}

// recorderModule is a minimal always-on detection module; each shard
// gets its own instance (the factory runs once per shard), all feeding
// the shared recorder.
type recorderModule struct {
	rec   *seqRecorder
	delay time.Duration
}

func (m *recorderModule) Name() string                  { return "seq-recorder" }
func (m *recorderModule) Kind() module.Kind             { return module.KindDetection }
func (m *recorderModule) WatchLabels() []string         { return nil }
func (m *recorderModule) Required(*knowledge.Base) bool { return true }
func (m *recorderModule) Activate(*ModuleContext)       {}
func (m *recorderModule) Deactivate()                   {}
func (m *recorderModule) HandlePacket(c *packet.Captured) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.rec.record(c)
}

// seqCapture builds a synthetic 802.15.4 capture whose payload encodes
// a per-source sequence number.
func seqCapture(src packet.NodeID, seq int) *Captured {
	return mediumCapture(packet.MediumIEEE802154, src, seq)
}

// mediumCapture is seqCapture on the given medium.
func mediumCapture(m packet.Medium, src packet.NodeID, seq int) *Captured {
	return (&Captured{
		Time:    netsim.Epoch.Add(time.Duration(seq) * time.Millisecond),
		Medium:  m,
		Src:     src,
		Dst:     "sink",
		Payload: []byte{byte(seq >> 8), byte(seq)},
	}).Identify()
}

func newRecorderNode(t testing.TB, rec *seqRecorder, delay time.Duration, opts ...Option) *Node {
	t.Helper()
	node, err := New(append([]Option{WithNodeID("K1"), WithoutDefaultModules()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	node.RegisterModule("seq-recorder", func(map[string]string) (Module, error) {
		return &recorderModule{rec: rec, delay: delay}, nil
	})
	if err := node.InstallModule("seq-recorder", nil); err != nil {
		t.Fatal(err)
	}
	return node
}

// TestShardedIngestOrdering replays an interleaved multi-source trace
// of four media from 4 concurrent producers — one per medium, as one
// capture goroutine owns a sniffer — through a node asked for 8 shards
// (it builds one per medium key: 3) and asserts every per-source
// sequence reaches the detector in capture order, with lossless
// accounting.
func TestShardedIngestOrdering(t *testing.T) {
	const (
		producers = 4
		perProd   = 16 // sources per producer
		per       = 200
	)
	media := [producers]packet.Medium{packet.MediumIEEE802154, packet.MediumWiFi, packet.MediumBluetooth, packet.MediumWired}
	rec := &seqRecorder{seqs: make(map[packet.NodeID][]int)}
	node := newRecorderNode(t, rec, 0,
		WithShards(8), WithIngestBlocking())
	if got := node.Shards(); got != 3 {
		t.Fatalf("Shards() = %d, want 3", got)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Round-robin across this producer's sources: maximally
			// interleaved from each shard ring's point of view.
			for seq := 0; seq < per; seq++ {
				for s := 0; s < perProd; s++ {
					src := packet.NodeID(fmt.Sprintf("node-%02d-%02d", p, s))
					node.HandleCapture(mediumCapture(media[p], src, seq))
				}
			}
		}(p)
	}
	wg.Wait()
	node.DrainIngest()

	const total = producers * perProd * per
	st := node.IngestStats()
	if st.Enqueued != total || st.Accepted != total || st.Dropped != 0 {
		t.Fatalf("lossless ingest accounting: %+v, want %d accepted, 0 dropped", st, total)
	}
	if st.Delivered != st.Accepted {
		t.Fatalf("DrainIngest left packets queued: %+v", st)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if got := len(rec.seqs); got != producers*perProd {
		t.Fatalf("detector saw %d sources, want %d", got, producers*perProd)
	}
	for src, seqs := range rec.seqs {
		if len(seqs) != per {
			t.Fatalf("source %s: %d packets reached the detector, want %d", src, len(seqs), per)
		}
		for i, seq := range seqs {
			if seq != i {
				t.Fatalf("source %s out of capture order: position %d holds seq %d", src, i, seq)
			}
		}
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedIngestDrainAccounting overfills the rings behind a gated
// detector so the drop-newest policy engages, then closes the node and
// asserts the TestAsyncCloseAccounting invariant for the ingest layer:
// delivered + dropped == enqueued, and every *accepted* packet was
// delivered (drain-on-Stop loses nothing).
func TestShardedIngestDrainAccounting(t *testing.T) {
	// A shard holds at most one 256-packet batch at the gate and 4096
	// packets in its ring; eight 802.15.4 sources put the whole burst
	// on one of the two shards.
	const total = 2*(4096+256) + 1000
	rec := &seqRecorder{seqs: make(map[packet.NodeID][]int), gate: make(chan struct{})}
	node := newRecorderNode(t, rec, 0, WithShards(2))
	for i := 0; i < total; i++ {
		src := packet.NodeID(fmt.Sprintf("burst-%d", i%8))
		node.HandleCapture(seqCapture(src, i))
	}
	close(rec.gate)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	st := node.IngestStats()
	if st.Enqueued != total {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, total)
	}
	if st.Dropped == 0 {
		t.Fatalf("4096-slot rings behind a closed gate must drop under a %d-packet burst", total)
	}
	if st.Accepted+st.Dropped != st.Enqueued {
		t.Fatalf("accounting broken: %+v", st)
	}
	if st.Delivered != st.Accepted {
		t.Fatalf("drain-on-Close lost accepted packets: %+v", st)
	}
	delivered := 0
	rec.mu.Lock()
	for _, seqs := range rec.seqs {
		delivered += len(seqs)
	}
	rec.mu.Unlock()
	if uint64(delivered) != st.Delivered {
		t.Fatalf("detector saw %d packets, stats claim %d", delivered, st.Delivered)
	}
}

// TestSlowModuleIsNeverWithheld: how long a module takes is no reason
// to withhold frames from it. Two blocking shards fed as fast as their
// rings take frames (no skew pacing: the rings stay full) keep a module
// that spends 2.5 ms per frame healthy, and hand it every frame.
func TestSlowModuleIsNeverWithheld(t *testing.T) {
	const total = 2800
	rec := &seqRecorder{seqs: make(map[packet.NodeID][]int)}
	node := newRecorderNode(t, rec, 2500*time.Microsecond, WithShards(2), WithIngestBlocking())
	defer node.Close()
	for i := 0; i < total; i++ {
		node.HandleCapture(seqCapture(packet.NodeID(fmt.Sprintf("slow-%d", i%8)), i))
	}
	node.DrainIngest()
	if h := node.ModuleHealth()["seq-recorder"]; h != "healthy" {
		t.Errorf("slow module is %q, want healthy", h)
	}
	seen := 0
	rec.mu.Lock()
	for _, seqs := range rec.seqs {
		seen += len(seqs)
	}
	rec.mu.Unlock()
	if seen != total {
		t.Fatalf("slow module saw %d of %d frames (ingest %+v)", seen, total, node.IngestStats())
	}
}

// TestUnshardedStaysSynchronous pins the shards=1 contract: dispatch
// happens inside HandleCapture (no drain needed) and the ingest
// pipeline is absent from the accounting.
func TestUnshardedStaysSynchronous(t *testing.T) {
	rec := &seqRecorder{seqs: make(map[packet.NodeID][]int)}
	node := newRecorderNode(t, rec, 0)
	defer node.Close()
	if got := node.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
	node.HandleCapture(seqCapture("solo", 0))
	rec.mu.Lock()
	n := len(rec.seqs["solo"])
	rec.mu.Unlock()
	if n != 1 {
		t.Fatalf("synchronous dispatch must complete within HandleCapture; detector saw %d packets", n)
	}
	if st := node.IngestStats(); st != (IngestStats{}) {
		t.Fatalf("unsharded node must report zero ingest stats, got %+v", st)
	}
}
