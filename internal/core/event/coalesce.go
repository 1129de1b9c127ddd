package event

import (
	"strconv"
	"sync"
)

// coalesceQueue is the CoalesceByKey subscriber queue: an unbounded
// FIFO over keys that holds at most one pending event per key. A newer
// event with a queued key replaces the pending payload in place — the
// subscriber always sees the latest value, keys keep their arrival
// order, and memory is bounded by the number of distinct keys (for the
// knowledge topic, the Knowledge Base size) rather than the event rate.
type coalesceQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string]interface{}
	order   []string
	seq     uint64
	closed  bool
}

func newCoalesceQueue() *coalesceQueue {
	q := &coalesceQueue{pending: make(map[string]interface{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put enqueues payload under key, replacing any pending payload with
// the same key; it reports whether the event coalesced into an
// existing one. Keyless payloads (key "") are never coalesced.
func (q *coalesceQueue) put(key string, payload interface{}) (coalesced bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if key == "" {
		// Synthesize a unique key; "\x00" cannot collide with a real
		// knowgget key.
		q.seq++
		//lint:ignore hotalloc keyless async events are detection/flow topics (alert- and export-gated); packets never travel on the bus
		key = "\x00" + strconv.FormatUint(q.seq, 10)
	} else if _, ok := q.pending[key]; ok {
		q.pending[key] = payload
		return true
	}
	q.pending[key] = payload
	q.order = append(q.order, key)
	q.cond.Signal()
	return false
}

// next blocks until an event is available or the queue is closed and
// drained; ok=false tells the worker to exit.
func (q *coalesceQueue) next() (payload interface{}, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.order) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.order) == 0 {
		return nil, false
	}
	key := q.order[0]
	q.order = q.order[1:]
	payload = q.pending[key]
	delete(q.pending, key)
	return payload, true
}

// depth returns the number of pending events.
func (q *coalesceQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order)
}

// close marks the queue closed; the worker drains what is pending and
// exits. Later puts are dropped.
func (q *coalesceQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
