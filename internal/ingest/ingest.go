// Package ingest is the sharded, batched ingestion pipeline between
// packet capture and module dispatch: the rings and workers a Kalis
// node puts in front of its shards when captures must not be
// dispatched on the capture goroutine — several shards fed in
// parallel, or one shard on an asynchronous node.
//
// A shard owns whole media, as Kalis overhears each medium through its
// own interface: a packet's shard is a fixed key of its capture medium
// (see shardKey) modulo the shard count. Every flow, detector state,
// endpoint tracker and alert cooldown of a medium therefore lives on one
// shard, and a medium's capture order is preserved end to end: its
// packets enter one ring in capture order and a single worker drains
// the ring FIFO.
//
// Each shard owns a fixed-size lock-free ring buffer (ring.go) drained
// by one worker goroutine that hands *batches* to its Sink, amortizing
// the per-dispatch lock round-trip, snapshot read and supervision
// bookkeeping across the batch. Backpressure is drop-newest with a
// per-shard counter by default — a passive IDS never blocks capture —
// or lossless (spin) when Config.Block is set, for offline replay and
// benchmarks where every packet must be observed.
package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// Sink consumes drained batches. Each shard has its own Sink instance;
// the pipeline never calls the same Sink from two goroutines.
type Sink interface {
	HandleBatch(batch []*packet.Captured)
}

// Config tunes the pipeline.
type Config struct {
	// Shards is the number of shard rings/workers (minimum 1).
	Shards int
	// Block selects lossless backpressure: Enqueue spins (yielding the
	// processor) until ring space frees instead of dropping. Default
	// is drop-newest with a per-shard drop counter.
	Block bool
	// MaxSkew bounds, in capture time, how far a packet being enqueued
	// may run ahead of the slowest shard that still has work queued —
	// one medium's shard against another's. Live capture never needs
	// it (arrival time tracks capture time), but an accelerated replay
	// of a multi-medium trace can hand one worker its whole medium
	// before another is scheduled, so knowledge one medium's traffic
	// yields — and the module activations it drives — would lag entire
	// attack episodes behind the racing shard. Only honoured in Block mode
	// (pacing means waiting, and drop-newest capture must never wait);
	// 0 disables. The bound is approximate: a worker's progress mark
	// trails the batch it is currently dispatching.
	MaxSkew time.Duration
}

// Ring and batch sizing: a 4096-packet ring absorbs multi-ms bursts at
// µs-scale processing cost, and 256-packet batches amortize dispatch
// overhead well past the point of diminishing returns while keeping
// worst-case batch latency bounded.
const (
	ringSize  = 4096
	batchSize = 256
)

// Metrics are the pipeline's optional telemetry hooks, pre-resolved
// per shard at wiring time so the hot path never does a Vec lookup;
// zero-value fields are skipped (all telemetry types are nil-safe).
type Metrics struct {
	// Depth tracks each shard's current ring occupancy.
	Depth []*telemetry.Gauge
	// Drops counts packets dropped by each full shard ring.
	Drops []*telemetry.Counter
	// BatchSize observes the size of every batch handed to a Sink,
	// encoded as 1 packet == 1 second (sum_seconds == total packets).
	BatchSize *telemetry.Histogram
}

// BatchSizeBuckets are the bucket bounds for the batch-size histogram
// under the 1 packet == 1 second encoding.
var BatchSizeBuckets = []time.Duration{
	1 * time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
	16 * time.Second, 32 * time.Second, 64 * time.Second, 128 * time.Second,
	256 * time.Second,
}

// shardState is one shard: its ring, its worker's wakeup channel, its
// sink and its pre-resolved telemetry children.
type shardState struct {
	ring   *ring
	notify chan struct{} // capacity 1: a wakeup token, never blocks
	sink   Sink

	depth *telemetry.Gauge
	drops *telemetry.Counter

	accepted  atomic.Uint64
	dropped   atomic.Uint64
	delivered atomic.Uint64

	// progress is the capture time (unix nanos) this shard has reached:
	// the last packet its worker dispatched, or the first packet queued
	// before the worker ever ran. 0 means no packet was ever routed
	// here. Read by Enqueue's skew pacing.
	progress atomic.Int64
}

// Stats is the pipeline's packet accounting. At any quiescent point
// (after Drain or Stop) Accepted == Delivered, and always
// Enqueued == Accepted + Dropped.
type Stats struct {
	// Enqueued counts Enqueue attempts.
	Enqueued uint64
	// Accepted counts packets that entered a shard ring.
	Accepted uint64
	// Dropped counts packets rejected by a full ring (drop-newest).
	Dropped uint64
	// Delivered counts packets handed to sinks in batches.
	Delivered uint64
}

// Pipeline is the sharded ingestion stage. Create with New, feed with
// Enqueue, shut down with Stop.
type Pipeline struct {
	shards  []*shardState
	block   bool
	maxSkew int64 // capture-time pacing bound in nanos; 0 = off
	met     Metrics

	// stopping gates Enqueue and inflight tracks producers mid-call: Stop
	// flips stopping, waits out in-flight enqueues, then signals workers to
	// drain — so every accepted packet is delivered, and accounting
	// is exact.
	stopping atomic.Bool
	inflight sync.WaitGroup
	stop     chan struct{}
	workers  sync.WaitGroup
}

// New creates and starts a pipeline with one sink per shard
// (len(sinks) must equal the shard count).
func New(cfg Config, sinks []Sink, met Metrics) *Pipeline {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	if len(sinks) != n {
		return nil
	}
	p := &Pipeline{
		shards: make([]*shardState, n),
		block:  cfg.Block,
		met:    met,
		stop:   make(chan struct{}),
	}
	if cfg.Block && cfg.MaxSkew > 0 && n > 1 {
		p.maxSkew = int64(cfg.MaxSkew)
	}
	for i := range p.shards {
		s := &shardState{
			ring:   newRing(ringSize),
			notify: make(chan struct{}, 1),
			sink:   sinks[i],
		}
		if i < len(met.Depth) {
			s.depth = met.Depth[i]
		}
		if i < len(met.Drops) {
			s.drops = met.Drops[i]
		}
		p.shards[i] = s
	}
	p.workers.Add(n)
	for i := range p.shards {
		go p.run(p.shards[i])
	}
	return p
}

// Shards returns the shard count.
func (p *Pipeline) Shards() int { return len(p.shards) }

// MediumKeys is the number of distinct shard keys: a node with more
// shards than this would leave some idle.
const MediumKeys = 3

// shardKey is the routing table: 802.15.4 is key 0, WiFi and wired
// share key 1 (IP evidence — victim windows, handshakes — is keyed by
// IP address across both), BLE is key 2. A frame with no known medium
// goes with key 0.
func shardKey(m packet.Medium) int {
	switch m {
	case packet.MediumWiFi, packet.MediumWired:
		return 1
	case packet.MediumBluetooth:
		return 2
	}
	return 0
}

// shardOf routes a packet to its shard: its medium's key modulo the
// shard count.
func (p *Pipeline) shardOf(c *packet.Captured) *shardState {
	return p.shards[shardKey(c.Medium)%len(p.shards)]
}

// Enqueue routes one packet to its shard ring. It reports false when
// the packet was dropped (full ring, drop-newest policy) or the
// pipeline is stopping. It never blocks in drop-newest mode; in Block
// mode it spins until space frees, yielding the processor each lap.
func (p *Pipeline) Enqueue(c *packet.Captured) bool {
	p.inflight.Add(1)
	if p.stopping.Load() {
		p.inflight.Done()
		return false
	}
	if p.maxSkew > 0 && !c.Time.IsZero() {
		// Pace the feed: wait until every shard with queued work is
		// within MaxSkew of this packet's capture time. Workers never
		// wait on producers, so the laggard is always making progress
		// and the loop terminates.
		for c.Time.UnixNano()-p.minBusyProgress() > p.maxSkew {
			if p.stopping.Load() {
				p.inflight.Done()
				return false
			}
			runtime.Gosched()
		}
	}
	s := p.shardOf(c)
	if p.maxSkew > 0 {
		// Seed the progress mark for a shard whose worker has not run
		// yet: its oldest queued packet, i.e. the first ever enqueued.
		s.progress.CompareAndSwap(0, c.Time.UnixNano())
	}
	for !s.ring.push(c) {
		if !p.block {
			s.dropped.Add(1)
			s.drops.Inc()
			p.inflight.Done()
			return false
		}
		runtime.Gosched()
	}
	s.accepted.Add(1)
	s.depth.Set(int64(s.ring.depth()))
	// Hand the worker a wakeup token; a token already in flight means
	// the worker will drain this packet anyway, so the send never
	// blocks.
	select {
	case s.notify <- struct{}{}:
	default:
	}
	p.inflight.Done()
	return true
}

// run is one shard's worker loop: drain the ring, sleep on the wakeup
// token, drain once more on shutdown so no accepted packet is lost.
func (p *Pipeline) run(s *shardState) {
	defer p.workers.Done()
	batch := make([]*packet.Captured, batchSize)
	for {
		p.drainShard(s, batch)
		select {
		case <-s.notify:
		case <-p.stop:
			// Stop closed p.stop only after every in-flight Enqueue
			// returned, so one final drain empties the ring for good.
			p.drainShard(s, batch)
			return
		}
	}
}

// drainShard pops and dispatches every packet currently in the shard's
// ring, in FIFO batches. It is the per-packet worker path and is
// registered as a kalislint hotpath/hotalloc root: nothing here (or in
// the sinks it reaches) may allocate, format or block per packet.
func (p *Pipeline) drainShard(s *shardState, batch []*packet.Captured) int {
	total := 0
	for {
		n := s.ring.pop(batch)
		if n == 0 {
			if total > 0 {
				s.depth.Set(int64(s.ring.depth()))
			}
			return total
		}
		p.met.BatchSize.Observe(time.Duration(n) * time.Second)
		s.sink.HandleBatch(batch[:n])
		s.delivered.Add(uint64(n))
		if p.maxSkew > 0 {
			s.progress.Store(batch[n-1].Time.UnixNano())
		}
		total += n
	}
}

// minBusyProgress returns the smallest progress mark among shards that
// still have queued packets, or a far-future value when every ring is
// empty (an idle shard cannot be behind). A worker mid-batch with an
// emptied ring momentarily reads as idle — MaxSkew is a bound up to
// one batch of slack, which pacing callers must tolerate.
func (p *Pipeline) minBusyProgress() int64 {
	const farFuture = int64(^uint64(0) >> 1)
	min := farFuture
	for _, s := range p.shards {
		if s.ring.depth() == 0 {
			continue
		}
		if prog := s.progress.Load(); prog != 0 && prog < min {
			min = prog
		}
	}
	return min
}

// depth returns the total number of packets currently queued across
// all shard rings.
func (p *Pipeline) depth() int {
	total := 0
	for _, s := range p.shards {
		total += s.ring.depth()
	}
	return total
}

// Stats returns the pipeline's packet accounting.
func (p *Pipeline) Stats() Stats {
	var st Stats
	for _, s := range p.shards {
		a, d, del := s.accepted.Load(), s.dropped.Load(), s.delivered.Load()
		st.Accepted += a
		st.Dropped += d
		st.Delivered += del
	}
	st.Enqueued = st.Accepted + st.Dropped
	return st
}

// Drain blocks until every packet accepted so far has been delivered.
// It is meant for quiescent producers (benchmarks, replay, shutdown
// sequencing); with concurrent Enqueues it only bounds the backlog at
// the moment of the call.
func (p *Pipeline) Drain() {
	for {
		st := p.Stats()
		if st.Delivered >= st.Accepted && p.depth() == 0 {
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// Stop shuts the pipeline down losslessly: new Enqueues are refused,
// in-flight ones complete, the workers drain every ring to empty and
// exit. After Stop returns, Stats().Delivered == Stats().Accepted.
func (p *Pipeline) Stop() {
	if p.stopping.Swap(true) {
		return
	}
	p.inflight.Wait()
	close(p.stop)
	p.workers.Wait()
}
