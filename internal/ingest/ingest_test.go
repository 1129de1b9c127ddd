package ingest

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// collectSink records delivered packets and batch sizes.
type collectSink struct {
	mu      sync.Mutex
	got     []*packet.Captured
	batches []int
	delay   time.Duration
}

func (s *collectSink) HandleBatch(batch []*packet.Captured) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	s.got = append(s.got, batch...)
	s.batches = append(s.batches, len(batch))
	s.mu.Unlock()
}

func cap4(src packet.NodeID, seq int) *packet.Captured {
	return &packet.Captured{Src: src, Payload: []byte{byte(seq >> 8), byte(seq)}}
}

func seqOf(c *packet.Captured) int { return int(c.Payload[0])<<8 | int(c.Payload[1]) }

func TestRingFIFOAndWrap(t *testing.T) {
	r := newRing(4)
	out := make([]*packet.Captured, 8)
	for lap := 0; lap < 3; lap++ {
		for i := 0; i < 4; i++ {
			if !r.push(cap4("a", lap*4+i)) {
				t.Fatalf("lap %d: push %d refused", lap, i)
			}
		}
		if r.push(cap4("a", 99)) {
			t.Fatal("push into full ring must refuse")
		}
		if d := r.depth(); d != 4 {
			t.Fatalf("depth = %d, want 4", d)
		}
		n := r.pop(out)
		if n != 4 {
			t.Fatalf("pop = %d, want 4", n)
		}
		for i := 0; i < 4; i++ {
			if seqOf(out[i]) != lap*4+i {
				t.Fatalf("lap %d: out[%d] = %d, want %d", lap, i, seqOf(out[i]), lap*4+i)
			}
		}
	}
}

func TestPipelineShardAffinityAndOrder(t *testing.T) {
	const shards = 4
	sinks := make([]Sink, shards)
	collect := make([]*collectSink, shards)
	for i := range sinks {
		collect[i] = &collectSink{}
		sinks[i] = collect[i]
	}
	p := New(Config{Shards: shards, Block: true}, sinks, Metrics{})
	sources := []packet.NodeID{"node-1", "node-2", "node-3", "node-4", "node-5", ""}
	const per = 500
	for seq := 0; seq < per; seq++ {
		for i, src := range sources {
			c := cap4(src, seq)
			c.Medium = packet.Medium(1 + i%4)
			if !p.Enqueue(c) {
				t.Fatalf("lossless enqueue refused (src=%q seq=%d)", src, seq)
			}
		}
	}
	p.Stop()

	// Every source lands wholly on one shard, in enqueue order.
	shardBySrc := make(map[packet.NodeID]int)
	lastSeq := make(map[packet.NodeID]int)
	total := 0
	for si, cs := range collect {
		for _, c := range cs.got {
			total++
			if prev, ok := shardBySrc[c.Src]; ok && prev != si {
				t.Fatalf("source %q split across shards %d and %d", c.Src, prev, si)
			}
			shardBySrc[c.Src] = si
			if last, ok := lastSeq[c.Src]; ok && seqOf(c) != last+1 {
				t.Fatalf("source %q out of order: %d after %d", c.Src, seqOf(c), last)
			}
			lastSeq[c.Src] = seqOf(c)
		}
	}
	if want := per * len(sources); total != want {
		t.Fatalf("delivered %d packets, want %d", total, want)
	}
	st := p.Stats()
	if st.Enqueued != st.Accepted+st.Dropped || st.Dropped != 0 || st.Delivered != st.Accepted {
		t.Fatalf("accounting broken after Stop: %+v", st)
	}
}

// TestShardKeyByMedium pins the routing table at every shard count a
// node builds and one more: 802.15.4, WiFi/wired and BLE are keys 0, 1
// and 2 modulo the shard count, so WiFi and wired always share a shard,
// three shards give each key its own, and each medium's packets reach
// their shard in enqueue order.
func TestShardKeyByMedium(t *testing.T) {
	media := []packet.Medium{packet.MediumIEEE802154, packet.MediumWiFi, packet.MediumWired, packet.MediumBluetooth}
	want := map[int][]int{ // shard of each of media, by shard count
		1: {0, 0, 0, 0},
		2: {0, 1, 1, 0},
		3: {0, 1, 1, 2},
		4: {0, 1, 1, 2},
	}
	for n := 1; n <= 4; n++ {
		collect := make([]*collectSink, n)
		sinks := make([]Sink, n)
		for i := range sinks {
			collect[i] = &collectSink{}
			sinks[i] = collect[i]
		}
		p := New(Config{Shards: n, Block: true}, sinks, Metrics{})
		const per = 300
		for seq := 0; seq < per; seq++ {
			for mi, m := range media {
				// Two sources per medium, interleaved.
				c := cap4(packet.NodeID(fmt.Sprintf("%v-%d", m, seq%2)), seq)
				c.Medium = m
				if p.shardOf(c) != p.shards[want[n][mi]] {
					t.Fatalf("%d shards: %v routed off shard %d", n, m, want[n][mi])
				}
				p.Enqueue(c)
			}
		}
		p.Stop()
		for si, cs := range collect {
			last := make(map[packet.NodeID]int)
			for _, c := range cs.got {
				if mi := slices.Index(media, c.Medium); want[n][mi] != si {
					t.Fatalf("%d shards: %v delivered on shard %d, want %d", n, c.Medium, si, want[n][mi])
				}
				if prev, ok := last[c.Src]; ok && seqOf(c) != prev+2 {
					t.Fatalf("%d shards: source %q out of order: %d after %d", n, c.Src, seqOf(c), prev)
				}
				last[c.Src] = seqOf(c)
			}
		}
		if st := p.Stats(); st.Delivered != per*uint64(len(media)) {
			t.Fatalf("%d shards: delivered %d, want %d", n, st.Delivered, per*len(media))
		}
	}
}

// gatedSink collects what it is handed once its gate is closed.
type gatedSink struct {
	collectSink
	gate chan struct{}
}

func (s *gatedSink) HandleBatch(batch []*packet.Captured) {
	<-s.gate
	s.collectSink.HandleBatch(batch)
}

func TestPipelineDropNewestAccounting(t *testing.T) {
	slow := &gatedSink{gate: make(chan struct{})}
	met := Metrics{
		Depth: []*telemetry.Gauge{{}},
		Drops: []*telemetry.Counter{{}},
	}
	p := New(Config{Shards: 1}, []Sink{slow}, met)
	// The worker holds at most one batch at the gate and the ring the
	// next ringSize packets: the rest of the burst is dropped.
	const n = ringSize + batchSize + 1000
	for i := 0; i < n; i++ {
		p.Enqueue(cap4("burst", i))
	}
	close(slow.gate)
	p.Stop()
	st := p.Stats()
	if st.Enqueued != n {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, n)
	}
	if st.Accepted < ringSize || st.Accepted > ringSize+batchSize {
		t.Fatalf("accepted %d behind a closed gate, want a full ring plus at most one batch", st.Accepted)
	}
	if st.Enqueued != st.Accepted+st.Dropped {
		t.Fatalf("enqueued %d != accepted %d + dropped %d", st.Enqueued, st.Accepted, st.Dropped)
	}
	if st.Delivered != st.Accepted {
		t.Fatalf("drain-on-Stop lost packets: delivered %d, accepted %d", st.Delivered, st.Accepted)
	}
	if got := met.Drops[0].Value(); got != st.Dropped {
		t.Fatalf("drop counter = %d, want %d", got, st.Dropped)
	}
	slow.mu.Lock()
	defer slow.mu.Unlock()
	if len(slow.got) != int(st.Delivered) {
		t.Fatalf("sink saw %d packets, stats say %d", len(slow.got), st.Delivered)
	}
}

func TestPipelineDrain(t *testing.T) {
	p := New(Config{Shards: 2, Block: true}, []Sink{&collectSink{}, &collectSink{}}, Metrics{})
	for i := 0; i < 1000; i++ {
		p.Enqueue(cap4(packet.NodeID(rune('a'+i%7)), i))
	}
	p.Drain()
	st := p.Stats()
	if st.Delivered != st.Accepted || st.Accepted != 1000 {
		t.Fatalf("after Drain: %+v", st)
	}
	p.Stop()
}

func TestEnqueueAfterStopRefused(t *testing.T) {
	cs := &collectSink{}
	p := New(Config{Shards: 1}, []Sink{cs}, Metrics{})
	p.Stop()
	if p.Enqueue(cap4("late", 1)) {
		t.Fatal("Enqueue after Stop must report false")
	}
	if st := p.Stats(); st.Enqueued != 0 {
		t.Fatalf("post-Stop enqueue must not count: %+v", st)
	}
}

func TestBatchSizeHistogramEncoding(t *testing.T) {
	cs := &collectSink{delay: 100 * time.Microsecond}
	reg := telemetry.NewRegistry()
	h := reg.Histogram("kalis_ingest_batch_size", "Batch sizes (1 packet == 1s).", BatchSizeBuckets)
	p := New(Config{Shards: 1, Block: true}, []Sink{cs}, Metrics{BatchSize: h})
	const n = 3 * batchSize
	for i := 0; i < n; i++ {
		p.Enqueue(cap4("s", i))
	}
	p.Stop()
	// Under the 1 packet == 1 second encoding, the histogram sum in
	// seconds is the total packet count and count is the batch count.
	if got := int(h.Sum() / time.Second); got != n {
		t.Fatalf("sum(batch sizes) = %d packets, want %d", got, n)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if int(h.Count()) != len(cs.batches) {
		t.Fatalf("histogram count %d != batches delivered %d", h.Count(), len(cs.batches))
	}
	for _, b := range cs.batches {
		if b > batchSize {
			t.Fatalf("batch of %d exceeds batchSize %d", b, batchSize)
		}
	}
}

// parkedSink blocks every HandleBatch until released.
type parkedSink struct {
	parked  chan struct{} // signaled once the sink is blocking
	release chan struct{}
}

func (s *parkedSink) HandleBatch(batch []*packet.Captured) {
	select {
	case s.parked <- struct{}{}:
	default:
	}
	<-s.release
}

// TestPipelineMaxSkewPacing: with a skew bound, Enqueue must not let a
// packet run more than MaxSkew of capture time ahead of a shard that
// still has queued work, and must proceed once that shard catches up.
func TestPipelineMaxSkewPacing(t *testing.T) {
	t0 := time.Unix(1_500_000_000, 0)
	slow := &parkedSink{parked: make(chan struct{}, 1), release: make(chan struct{})}
	fast := &collectSink{}
	// 802.15.4 routes to shard 0, WiFi to shard 1.
	p := New(Config{Shards: 2, Block: true, MaxSkew: time.Second}, []Sink{slow, fast}, Metrics{})
	defer p.Stop()

	at := func(m packet.Medium, d time.Duration) *packet.Captured {
		return &packet.Captured{Medium: m, Time: t0.Add(d)}
	}
	// First packet parks the slow worker inside HandleBatch; the
	// second stays queued so the shard counts as busy at t0.
	p.Enqueue(at(packet.MediumIEEE802154, 0))
	<-slow.parked
	p.Enqueue(at(packet.MediumIEEE802154, 0))

	// 5s of capture time ahead of the parked shard: must pace.
	done := make(chan struct{})
	go func() {
		p.Enqueue(at(packet.MediumWiFi, 5*time.Second))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("enqueue ran 5s of capture time ahead of a busy shard (MaxSkew 1s)")
	case <-time.After(50 * time.Millisecond):
	}

	close(slow.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still paced after the lagging shard drained")
	}
	p.Stop()
	st := p.Stats()
	if st.Delivered != st.Accepted || st.Accepted != 3 {
		t.Fatalf("accounting after paced run: %+v", st)
	}
}
