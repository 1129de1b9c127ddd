package event

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"kalis/internal/telemetry"
)

// topicTest is an arbitrary custom topic: no policy installed, so it
// gets the DropNewest default in async mode.
const topicTest = "test"

func TestSyncDeliveryOrder(t *testing.T) {
	b := NewBus(false)
	var got []int
	b.Subscribe(topicTest, func(p interface{}) { got = append(got, p.(int)*10) })
	b.Subscribe(topicTest, func(p interface{}) { got = append(got, p.(int)*10+1) })
	b.Publish(topicTest, 1)
	b.Publish(topicTest, 2)
	want := []int{10, 11, 20, 21}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestTopicsAreIsolated(t *testing.T) {
	b := NewBus(false)
	count := 0
	b.Subscribe(TopicDetection, func(interface{}) { count++ })
	b.Publish(topicTest, 1)
	b.Publish(TopicKnowledge, 2)
	if count != 0 {
		t.Errorf("cross-topic delivery: %d", count)
	}
	b.Publish(TopicDetection, 3)
	if count != 1 {
		t.Errorf("count = %d", count)
	}
}

func TestAsyncDeliversAll(t *testing.T) {
	b := NewBus(true)
	var mu sync.Mutex
	sum := 0
	b.Subscribe(topicTest, func(p interface{}) {
		mu.Lock()
		sum += p.(int)
		mu.Unlock()
	})
	total := 0
	for i := 1; i <= 100; i++ {
		b.Publish(topicTest, i)
		total += i
	}
	b.Close() // drains and joins
	if sum != total {
		t.Errorf("sum = %d, want %d", sum, total)
	}
}

func TestPublishAfterCloseIsNoop(t *testing.T) {
	b := NewBus(false)
	count := 0
	b.Subscribe(topicTest, func(interface{}) { count++ })
	b.Close()
	b.Publish(topicTest, 1)
	if count != 0 {
		t.Errorf("delivered after close")
	}
}

func TestSubscribeAfterCloseIsNoop(t *testing.T) {
	b := NewBus(true)
	b.Close()
	b.Subscribe(topicTest, func(interface{}) { t.Error("handler invoked") })
	b.Publish(topicTest, 1)
}

func TestDoubleCloseSafe(t *testing.T) {
	b := NewBus(true)
	b.Subscribe(topicTest, func(interface{}) {})
	b.Close()
	b.Close()
}

func TestConcurrentPublishAndClose(t *testing.T) {
	// Closing while publishers race must neither panic (send on closed
	// channel) nor deadlock. Run with -race.
	for round := 0; round < 20; round++ {
		b := NewBus(true)
		b.Subscribe(topicTest, func(interface{}) {})
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					b.Publish(topicTest, i)
				}
			}()
		}
		b.Close()
		wg.Wait()
	}
}

func TestReentrantPublish(t *testing.T) {
	// A sync handler may publish further events (the core pipeline
	// does: packet handling raises detection events).
	b := NewBus(false)
	var got []string
	b.Subscribe(topicTest, func(interface{}) {
		got = append(got, "packet")
		b.Publish(TopicDetection, "alert")
	})
	b.Subscribe(TopicDetection, func(interface{}) { got = append(got, "detection") })
	b.Publish(topicTest, 1)
	if len(got) != 2 || got[0] != "packet" || got[1] != "detection" {
		t.Errorf("got %v", got)
	}
	b.Close()
}

func TestAsyncFullQueueDropsAndCounts(t *testing.T) {
	b := NewBus(true)
	reg := telemetry.NewRegistry()
	drops := reg.CounterVec("kalis_bus_drops_total", "topic", "Drops.")
	b.SetMetrics(Metrics{
		Publishes: reg.CounterVec("kalis_bus_publishes_total", "topic", "Publishes."),
		Drops:     drops,
	})

	block := make(chan struct{})
	var handled atomic.Uint64
	b.Subscribe(topicTest, func(interface{}) {
		<-block
		handled.Add(1)
	})

	// The worker dequeues at most one event (then blocks in the
	// handler), so publishing AsyncQueueCap+1+extra events overflows
	// the queue by at least extra.
	const extra = 10
	for i := 0; i < AsyncQueueCap+1+extra; i++ {
		b.Publish(topicTest, i) // must never block
	}
	if got := b.Drops(); got < extra {
		t.Errorf("Drops() = %d, want >= %d", got, extra)
	}
	if depth := b.QueueDepth(); depth != AsyncQueueCap {
		t.Errorf("QueueDepth() = %d, want %d", depth, AsyncQueueCap)
	}
	close(block)
	b.Close()
	if got, want := handled.Load()+b.Drops(), uint64(AsyncQueueCap+1+extra); got != want {
		t.Errorf("handled+dropped = %d, want %d", got, want)
	}
	if got := drops.With(topicTest).Value(); got != b.Drops() {
		t.Errorf("telemetry drops = %d, bus drops = %d", got, b.Drops())
	}
}

func TestPublishMetrics(t *testing.T) {
	b := NewBus(false)
	reg := telemetry.NewRegistry()
	pubs := reg.CounterVec("kalis_bus_publishes_total", "topic", "Publishes.")
	b.SetMetrics(Metrics{Publishes: pubs})
	b.Subscribe(topicTest, func(interface{}) {})
	b.Publish(topicTest, 1)
	b.Publish(topicTest, 2)
	b.Publish(TopicDetection, 3) // counted even with no subscribers
	if got := pubs.With(topicTest).Value(); got != 2 {
		t.Errorf("packet publishes = %d, want 2", got)
	}
	if got := pubs.With(TopicDetection).Value(); got != 1 {
		t.Errorf("detection publishes = %d, want 1", got)
	}
	b.Close()
}

// TestAsyncCloseAccounting races concurrent publishers against Close and
// proves the shutdown contract of the async drop-and-count path: every
// accepted Publish (counted by the publishes telemetry) is either
// delivered to the handler or counted in Drops — never silently lost —
// and no event reaches a handler after Close has returned.
func TestAsyncCloseAccounting(t *testing.T) {
	b := NewBus(true)
	reg := telemetry.NewRegistry()
	pubs := reg.CounterVec("kalis_bus_publishes_total", "topic", "Publishes.")
	b.SetMetrics(Metrics{
		Publishes: pubs,
		Drops:     reg.CounterVec("kalis_bus_drops_total", "topic", "Drops."),
	})

	var delivered atomic.Uint64
	var closed atomic.Bool
	stall := make(chan struct{})
	b.Subscribe(topicTest, func(interface{}) {
		<-stall // first delivery parks the worker, so the queue backs up
		if closed.Load() {
			t.Error("event delivered after Close returned")
		}
		delivered.Add(1)
	})

	const publishers = 4
	const perPublisher = 2 * AsyncQueueCap
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				b.Publish(topicTest, i)
				issued.Add(1)
			}
		}()
	}
	// Let the stalled worker's queue overflow before racing Close
	// against the still-running publishers.
	for issued.Load() < 2*AsyncQueueCap {
		runtime.Gosched()
	}
	close(stall)
	b.Close()
	closed.Store(true)
	wg.Wait() // publishers finishing after Close must be silent no-ops

	accepted := pubs.With(topicTest).Value()
	if accepted == 0 {
		t.Fatal("no publish was accepted before Close")
	}
	if b.Drops() == 0 {
		t.Fatal("expected drops: the stalled worker saw more than AsyncQueueCap accepted publishes")
	}
	if got := delivered.Load() + b.Drops(); got != accepted {
		t.Fatalf("delivered %d + dropped %d = %d, want accepted %d (a publish was lost)",
			delivered.Load(), b.Drops(), got, accepted)
	}
}
