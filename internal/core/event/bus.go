// Package event implements the event-driven backbone of Kalis (§V
// "Event-driven Architecture"): components publish knowledge,
// detection and flow-record events; subscribers are notified and
// process them independently. Packets do not travel on the bus: the
// Communication System hands them straight to a shard (internal/core),
// inline or through an ingest ring.
//
// The bus has two delivery modes. Synchronous delivery invokes
// subscribers inline in subscription order — deterministic, used by
// tests and the evaluation harness. Asynchronous delivery hands each
// subscriber its own goroutine and bounded queue (AsyncQueueCap),
// reproducing the paper's "all the components in Kalis run
// independently" architecture; Close drains and joins every worker (no
// fire-and-forget goroutines). When an async subscriber's queue is
// full the event is dropped and counted (unless the topic's policy says
// otherwise, see OverflowPolicy) and the drop is surfaced through Drops
// and the telemetry counters instead of silently blocking the
// publisher.
package event

import (
	"sync"
	"sync/atomic"

	"kalis/internal/telemetry"
)

// Topic names used by Kalis.
const (
	TopicKnowledge   = "knowledge"
	TopicDetection   = "detection"
	TopicFlowRecords = "flow.records"
)

// AsyncQueueCap is the per-subscriber queue capacity in asynchronous
// delivery mode. A subscriber lagging more than AsyncQueueCap events
// behind the publishers loses the overflow (counted in Drops and the
// kalis_bus_drops_total telemetry); size it against the expected burst
// length at capture rate.
const AsyncQueueCap = 1024

// Handler consumes a published event payload.
type Handler func(payload interface{})

// OverflowPolicy selects what an async topic does when a subscriber
// queue fills (§V's independence requirement meets bounded memory).
type OverflowPolicy int

const (
	// DropNewest drops the incoming event when the queue is full — the
	// default for any topic without a policy of its own (custom topics
	// included): a slow consumer never stalls its publisher.
	DropNewest OverflowPolicy = iota
	// CoalesceByKey keeps at most one in-flight event per key: a newer
	// event replaces the queued one with the same key instead of
	// growing the queue. Right for the knowledge topic, where only the
	// latest value of a knowgget matters.
	CoalesceByKey
	// Block applies backpressure: the publisher waits for queue space,
	// so no event is ever lost. Right for the low-rate detection topic,
	// where a dropped alert is a missed detection. Crossing the
	// high-watermark is counted so saturation is visible before it
	// stalls the pipeline.
	Block
)

// TopicPolicy configures one topic's overflow behaviour. Install with
// SetTopicPolicy before Subscribe: the policy binds to subscribers as
// they register.
type TopicPolicy struct {
	Policy OverflowPolicy
	// Key extracts the coalescing key from a payload (CoalesceByKey
	// only). Payloads with an empty key are never coalesced.
	Key func(payload interface{}) string
	// HighWatermark is the queue depth at which a Block-policy topic
	// counts a watermark crossing (0 defaults to half the queue cap).
	HighWatermark int
	// OnWatermark, when set, is invoked (on the publisher goroutine)
	// each time a Block-policy send finds the queue at or above the
	// high watermark.
	OnWatermark func(depth int)
}

// Metrics are the bus' optional telemetry hooks; zero-value fields are
// skipped (all telemetry types are nil-safe).
type Metrics struct {
	// Publishes counts Publish calls per topic.
	Publishes *telemetry.CounterVec
	// Drops counts events lost per topic to full async queues.
	Drops *telemetry.CounterVec
	// Coalesced counts events absorbed per topic by CoalesceByKey
	// (replaced by a newer event with the same key — not lost).
	Coalesced *telemetry.CounterVec
	// Watermarks counts high-watermark crossings per Block-policy
	// topic.
	Watermarks *telemetry.CounterVec
}

// Bus routes events from publishers to subscribers by topic.
type Bus struct {
	mu    sync.RWMutex
	async bool
	subs  map[string][]*subscriber
	pols  map[string]TopicPolicy
	met   Metrics
	// tmet holds the per-topic telemetry child handles, resolved off
	// the hot path (at SetMetrics/Subscribe time): Publish must never
	// pay a Vec.With lookup per event.
	tmet  map[string]*topicMetrics
	drops atomic.Uint64
	// wg tracks worker goroutines; pubWG tracks in-flight Publish
	// calls so Close never closes a queue a publisher is sending on.
	wg     sync.WaitGroup
	pubWG  sync.WaitGroup
	closed bool
}

// topicMetrics are one topic's pre-resolved counters (nil-safe, like
// all telemetry types).
type topicMetrics struct {
	pub  *telemetry.Counter
	drop *telemetry.Counter
	coal *telemetry.Counter
	wm   *telemetry.Counter
}

type subscriber struct {
	fn Handler
	ch chan interface{}
	// block selects the lossless plain send over select/default drop
	// (Block policy); hwm and onWM are its watermark config.
	block bool
	hwm   int
	onWM  func(int)
	// key extracts the coalescing key; cq is the coalescing queue that
	// replaces ch under the CoalesceByKey policy.
	key func(interface{}) string
	cq  *coalesceQueue
}

// NewBus creates a bus. With async true each subscriber gets a
// dedicated worker goroutine and events are delivered concurrently;
// with async false delivery is inline and deterministic.
func NewBus(async bool) *Bus {
	b := &Bus{
		async: async,
		subs:  make(map[string][]*subscriber),
		pols:  make(map[string]TopicPolicy),
		tmet:  make(map[string]*topicMetrics),
	}
	for _, topic := range []string{TopicKnowledge, TopicDetection, TopicFlowRecords} {
		b.resolveTopicLocked(topic)
	}
	return b
}

// SetTopicPolicy installs an overflow policy for one topic. Call it
// before Subscribe: the policy binds to subscribers as they register
// (existing subscribers keep the policy they were created with). Only
// async buses queue, so policies are inert in synchronous mode (inline
// delivery is already lossless).
func (b *Bus) SetTopicPolicy(topic string, p TopicPolicy) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pols[topic] = p
}

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (b *Bus) SetMetrics(m Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.met = m
	// Re-resolve every known topic against the new hooks.
	for topic := range b.tmet {
		delete(b.tmet, topic)
		b.resolveTopicLocked(topic)
	}
}

// resolveTopicLocked caches the topic's telemetry children; the write
// lock must be held. It runs at wiring time (NewBus, SetMetrics,
// Subscribe) and at most once per unknown topic from Publish.
func (b *Bus) resolveTopicLocked(topic string) *topicMetrics {
	if tm, ok := b.tmet[topic]; ok {
		return tm
	}
	//lint:ignore hotpath,hotalloc one-time per-topic child resolution, amortized across all publishes
	tm := &topicMetrics{pub: b.met.Publishes.With(topic), drop: b.met.Drops.With(topic)}
	//lint:ignore hotpath one-time per-topic child resolution, amortized across all publishes
	tm.coal, tm.wm = b.met.Coalesced.With(topic), b.met.Watermarks.With(topic)
	b.tmet[topic] = tm
	return tm
}

// Drops returns the number of events lost to full async queues.
func (b *Bus) Drops() uint64 { return b.drops.Load() }

// QueueDepth returns the total number of events queued across all
// async subscribers (always 0 in synchronous mode).
func (b *Bus) QueueDepth() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	depth := 0
	for _, subs := range b.subs {
		for _, s := range subs {
			if s.ch != nil {
				depth += len(s.ch)
			}
			if s.cq != nil {
				depth += s.cq.depth()
			}
		}
	}
	return depth
}

// Subscribe registers a handler for a topic.
func (b *Bus) Subscribe(topic string, fn Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.resolveTopicLocked(topic)
	sub := &subscriber{fn: fn}
	if b.async {
		pol := b.pols[topic]
		switch pol.Policy {
		case CoalesceByKey:
			sub.key = pol.Key
			sub.cq = newCoalesceQueue()
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				for {
					p, ok := sub.cq.next()
					if !ok {
						return
					}
					sub.fn(p)
				}
			}()
		case Block:
			sub.block = true
			sub.hwm = pol.HighWatermark
			if sub.hwm <= 0 {
				sub.hwm = AsyncQueueCap / 2
			}
			sub.onWM = pol.OnWatermark
			fallthrough
		default:
			sub.ch = make(chan interface{}, AsyncQueueCap)
			b.wg.Add(1)
			go func() {
				defer b.wg.Done()
				for p := range sub.ch {
					sub.fn(p)
				}
			}()
		}
	}
	b.subs[topic] = append(b.subs[topic], sub)
}

// Publish delivers payload to every subscriber of topic. Handlers may
// publish further events re-entrantly (no lock is held during
// delivery). In async mode a subscriber whose queue is full loses the
// event (counted, never blocking the publisher).
func (b *Bus) Publish(topic string, payload interface{}) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return
	}
	// Registering in-flight status under the read lock means Close
	// (which takes the write lock first) always waits for this send.
	b.pubWG.Add(1)
	subs := b.subs[topic]
	tm := b.tmet[topic]
	b.mu.RUnlock()
	defer b.pubWG.Done()

	if tm == nil {
		// First publish on a topic nobody subscribed or pre-wired:
		// resolve once under the write lock, then never again.
		b.mu.Lock()
		tm = b.resolveTopicLocked(topic)
		b.mu.Unlock()
	}
	tm.pub.Inc()
	for _, s := range subs {
		switch {
		case s.cq != nil:
			key := ""
			if s.key != nil {
				key = s.key(payload)
			}
			if s.cq.put(key, payload) {
				tm.coal.Inc()
			}
		case s.ch == nil:
			s.fn(payload)
		case s.block:
			if len(s.ch) >= s.hwm {
				tm.wm.Inc()
				if s.onWM != nil {
					s.onWM(len(s.ch))
				}
			}
			// Lossless by construction: the worker drains this queue
			// until Close, so the send always completes.
			//lint:ignore hotpath Block policy: backpressure is the point (lossless detection topic)
			s.ch <- payload
		default:
			select {
			case s.ch <- payload:
			default:
				b.drops.Add(1)
				tm.drop.Inc()
			}
		}
	}
}

// Close stops the bus. In async mode it drains every subscriber queue
// and waits for the workers to exit; afterwards Publish is a no-op.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	var chans []chan interface{}
	var queues []*coalesceQueue
	for _, subs := range b.subs {
		for _, s := range subs {
			if s.ch != nil {
				chans = append(chans, s.ch)
			}
			if s.cq != nil {
				queues = append(queues, s.cq)
			}
		}
	}
	b.mu.Unlock()
	b.pubWG.Wait() // no publisher is mid-send past this point
	for _, ch := range chans {
		close(ch)
	}
	for _, q := range queues {
		q.close()
	}
	b.wg.Wait()
}
