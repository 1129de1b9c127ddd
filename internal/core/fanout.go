package core

import (
	"sync"
	"sync/atomic"

	"kalis/internal/telemetry"
)

// fanout delivers one kind of node event — alerts, knowledge changes or
// flow records — to its subscribers: synchronously, in subscription
// order, on the publishing goroutine (the capture goroutine of an
// in-line node, a shard's worker behind an ingest ring). No lock is held
// during delivery, so a handler may publish or subscribe re-entrantly; a
// handler of a multi-shard node must be safe for concurrent calls.
//
// There is no queue here: a node that wants work off the capture
// goroutine gets an ingest ring (Config.Async), where a slow consumer
// back-pressures one queue with one loss policy.
type fanout[T any] struct {
	mu sync.Mutex // serialises subscribe
	// subs is copy-on-write: publish walks the list it loaded while
	// subscribe installs a longer copy.
	subs      atomic.Pointer[[]handler[T]]
	closed    atomic.Bool
	published *telemetry.Counter
}

// handler consumes one event. (A named type, like the callbacks of the
// components feeding the fan-outs: kalislint resolves calls through it.)
type handler[T any] func(T)

// subscribe appends fn to the delivery order. It sees the events
// published after subscribe returns.
func (f *fanout[T]) subscribe(fn handler[T]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var subs []handler[T]
	if old := f.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, fn)
	f.subs.Store(&subs)
}

// publish counts v and hands it to every subscriber; after close it
// does neither.
func (f *fanout[T]) publish(v T) {
	if f.closed.Load() {
		return
	}
	f.published.Inc()
	if subs := f.subs.Load(); subs != nil {
		for _, fn := range *subs {
			fn(v)
		}
	}
}

// close ends delivery: an event published after close returns reaches
// nobody.
func (f *fanout[T]) close() { f.closed.Store(true) }
