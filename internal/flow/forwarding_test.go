package flow

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

var fwdCfg = ForwardingConfig{Timeout: 500 * time.Millisecond, Window: 30 * time.Second, MinSamples: 4}

// ctpCap decodes a built CTP frame into a capture at the given time.
func ctpCap(t testing.TB, raw []byte, at time.Time) *packet.Captured {
	t.Helper()
	c, err := stack.Decode(packet.MediumIEEE802154, raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c.Time = at
	return c
}

// feedChain plays n rounds of origin 3 → relay 2 → root 1 into observe,
// three seconds apart; relay 2 forwards round i unless drop(i).
func feedChain(t testing.TB, observe func(*packet.Captured), start time.Time, n int, drop func(int) bool) time.Time {
	t.Helper()
	observe(ctpCap(t, stack.BuildCTPBeacon(1, 1, 0, 1), start))
	at := start
	for i := 0; i < n; i++ {
		at = start.Add(time.Duration(i) * 3 * time.Second)
		observe(ctpCap(t, stack.BuildCTPData(3, 2, 3, uint8(i), 0, 20, []byte{1, uint8(i)}), at))
		if !drop(i) {
			at = at.Add(30 * time.Millisecond)
			observe(ctpCap(t, stack.BuildCTPData(2, 1, 3, uint8(i), 1, 10, []byte{1, uint8(i)}), at))
		}
	}
	return at
}

func TestForwardingWatchRatios(t *testing.T) {
	w := NewForwardingWatch(fwdCfg)
	// Three rounds: too few outcomes to report anything.
	now := feedChain(t, w.Observe, t0, 3, func(int) bool { return false })
	if got := w.Ratios(now, nil); len(got) != 0 {
		t.Fatalf("reported below MinSamples: %+v", got)
	}
	// Nine rounds, every other one dropped. The drop of round 8 has not
	// expired yet (no later data frame), so the window holds rounds 0–7.
	w = NewForwardingWatch(fwdCfg)
	now = feedChain(t, w.Observe, t0, 9, func(i int) bool { return i%2 == 0 })
	want := []RelayRatio{{Relay: "0x0002", Ratio: 0.5, Origins: 1}}
	if got := w.Ratios(now, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("Ratios = %+v, want %+v", got, want)
	}
	if got := w.DroppedOrigins("0x0002"); !reflect.DeepEqual(got, []uint16{3}) {
		t.Errorf("DroppedOrigins = %v, want [3]", got)
	}
	// The root is handed frames and never forwards: not a relay.
	if got := w.DroppedOrigins("0x0001"); len(got) != 0 {
		t.Errorf("collection root accused of dropping %v", got)
	}
	// Read a window later: everything has aged out, without new frames.
	if got := w.Ratios(now.Add(fwdCfg.Window+time.Minute), nil); len(got) != 0 {
		t.Errorf("aged-out outcomes still reported: %+v", got)
	}
}

// TestForwardingWatchAllocs: a frame without a CTP layer costs the
// tracker nothing, and neither does polling the verdict input — at the
// capture time already computed, or at a new one.
func TestForwardingWatchAllocs(t *testing.T) {
	w := NewForwardingWatch(fwdCfg)
	now := feedChain(t, w.Observe, t0, 12, func(i int) bool { return i%3 == 0 })
	wifi := cap1("a", "b", now)
	if n := testing.AllocsPerRun(100, func() { w.Observe(wifi) }); n != 0 {
		t.Errorf("Observe of a non-CTP frame: %v allocs, want 0", n)
	}
	buf := w.Ratios(now, nil)
	if len(buf) != 1 {
		t.Fatalf("Ratios = %+v, want one relay", buf)
	}
	if n := testing.AllocsPerRun(100, func() { buf = w.Ratios(now, buf) }); n != 0 {
		t.Errorf("Ratios at the computed capture time: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Millisecond)
		buf = w.Ratios(now, buf)
	}); n != 0 {
		t.Errorf("Ratios at a new capture time: %v allocs, want 0", n)
	}
}

// TestForwardingWatchShared: the registry hands alike-configured
// callers one instance — on one table or on two sharing the registry —
// that the table folds a frame into exactly once, and a differently
// configured caller its own.
func TestForwardingWatchShared(t *testing.T) {
	reg := NewTrackers()
	tblA := NewTable(Config{Features: []string{}, Trackers: reg})
	tblB := NewTable(Config{Features: []string{}, Trackers: reg})

	sel, bh := tblA.Forwarding(fwdCfg), tblA.Forwarding(fwdCfg)
	if sel != bh {
		t.Fatal("alike-configured callers on one table got distinct watches")
	}
	if other := tblB.Forwarding(fwdCfg); other != sel {
		t.Fatal("tables sharing a registry yielded distinct watches")
	}
	if n := len(reg.snapshot()); n != 1 {
		t.Fatalf("%d trackers observe each frame, want 1 (one fold per frame)", n)
	}
	slow := fwdCfg
	slow.Timeout = time.Second
	odd := tblA.Forwarding(slow)
	if odd == sel {
		t.Fatal("differently configured caller shares the watch")
	}
	odd.Release()

	// Hand-offs split across the two tables accumulate in the one watch.
	flip := false
	now := feedChain(t, func(c *packet.Captured) {
		if flip = !flip; flip {
			tblA.Update(c)
		} else {
			tblB.Update(c)
		}
	}, t0, 9, func(i int) bool { return i%2 == 0 })
	if got := sel.Ratios(now, nil); len(got) != 1 || got[0].Ratio != 0.5 {
		t.Errorf("Ratios = %+v, want relay 0x0002 at 0.5", got)
	}
}

// TestForwardingWatchConcurrent drives one registry from two tables on
// two goroutines, as shard workers do, each polling the verdict input
// after every frame (meaningful under -race).
func TestForwardingWatchConcurrent(t *testing.T) {
	reg := NewTrackers()
	held := NewTable(Config{Features: []string{}, Trackers: reg}).Forwarding(fwdCfg)
	defer held.Release()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		var frames []*packet.Captured
		feedChain(t, func(c *packet.Captured) { frames = append(frames, c) },
			t0.Add(time.Duration(g)*time.Second), 40, func(i int) bool { return i%2 == g })
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbl := NewTable(Config{Features: []string{}, Trackers: reg})
			w := tbl.Forwarding(fwdCfg)
			defer w.Release()
			var buf []RelayRatio
			for _, c := range frames {
				tbl.Update(c)
				buf = w.Ratios(c.Time, buf)
				for _, r := range buf {
					w.DroppedOrigins(r.Relay)
				}
			}
		}()
	}
	wg.Wait()
	if got := held.Ratios(t0.Add(2*time.Minute), nil); len(got) != 1 || got[0].Relay != "0x0002" {
		t.Errorf("Ratios after concurrent feeds = %+v, want relay 0x0002", got)
	}
}
