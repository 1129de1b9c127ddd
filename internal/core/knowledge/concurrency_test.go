package knowledge

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentAccess hammers the Knowledge Base from writers,
// readers and subscribers at once; run with -race. The Base backs an
// async event-bus deployment, so it must be safe under concurrency.
func TestConcurrentAccess(t *testing.T) {
	b := NewBase("K1")
	b.Subscribe("TrafficFrequency", func(Knowgget) {})
	b.SubscribeAll(func(Knowgget) {})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Put(fmt.Sprintf("TrafficFrequency.Kind%d", w), fmt.Sprintf("%d", i))
				b.PutEntity("SignalStrength", fmt.Sprintf("node-%d-%d", w, i%8), "-60")
				b.PutCollective("Shared", fmt.Sprintf("e%d", w), "v")
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Knowgget
			for i := 0; i < 200; i++ {
				_ = b.QueryLocal()
				buf = b.AppendLocal(buf[:0], "SignalStrength")
				_, _ = b.Int("TrafficFrequency.Kind0")
				_, _ = b.EntityFloat("SignalStrength", "node-1-0")
				_ = b.Snapshot()
				_ = b.Len()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.AcceptGossip("K2", Knowgget{Label: "X", Value: fmt.Sprint(i), Creator: "K2", Version: uint64(i + 1)})
			b.Delete("K2$X")
		}
	}()
	wg.Wait()

	if b.Len() == 0 {
		t.Error("base empty after concurrent writes")
	}
	if got := len(b.AppendLocal(nil, "SignalStrength")); got != 32 {
		t.Errorf("AppendLocal after concurrent writes = %d fingerprints, want 32", got)
	}
}
