package detection

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

// TestWatchdogNeverAccusesHealthyRelay is the watchdog's core safety
// property: for any traffic schedule in which the relay always
// forwards within the timeout, no alert is ever raised.
func TestWatchdogNeverAccusesHealthyRelay(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + int(nRaw%40)
		h := newHarness(true)
		sel, _ := NewSelectiveForwarding(nil)
		bh, _ := NewBlackhole(nil)
		sel.Activate(h.ctx)
		bh.Activate(h.ctx)

		handle := func(c *packet.Captured) { h.deliver(c, sel, bh) }
		handle(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
		at := t0
		for i := 0; i < n; i++ {
			// Random origination gaps, forwarding always within the
			// 500 ms timeout.
			at = at.Add(time.Duration(500+rng.Intn(4000)) * time.Millisecond)
			handle(mkCap(t, packet.MediumIEEE802154,
				stack.BuildCTPData(3, 2, 3, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at, -65))
			fwdDelay := time.Duration(5+rng.Intn(400)) * time.Millisecond
			handle(mkCap(t, packet.MediumIEEE802154,
				stack.BuildCTPData(2, 1, 3, uint8(i), 1, 10, []byte{0x01, uint8(i)}), at.Add(fwdDelay), -55))
		}
		return len(h.alerts) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWatchdogAlwaysCatchesTotalDrop: the complementary liveness
// property — a relay that drops everything is always flagged once
// enough evidence accumulates.
func TestWatchdogAlwaysCatchesTotalDrop(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness(true)
		bh, _ := NewBlackhole(nil)
		bh.Activate(h.ctx)
		h.deliver(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50), bh)
		at := t0
		for i := 0; i < 20; i++ {
			at = at.Add(time.Duration(1000+rng.Intn(2000)) * time.Millisecond)
			h.deliver(mkCap(t, packet.MediumIEEE802154,
				stack.BuildCTPData(3, 2, 3, uint8(i), 0, 20, []byte{0x01, uint8(i)}), at, -65), bh)
		}
		return len(h.alerts) > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRateWindowInvariant: the victim window (shared through the flow
// layer) never reports an event older than its configured bound, and
// the cooldown ledger beside it never passes during cooldown.
func TestRateWindowInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		win := flow.NewVictimWindow(flow.MaskOf(packet.KindICMPEchoReply), 5*time.Second)
		gate := flow.NewCooldown()
		at := t0
		var lastAlert time.Time
		for i := 0; i < 300; i++ {
			at = at.Add(time.Duration(rng.Intn(1200)) * time.Millisecond)
			win.Observe(obs(&packet.Captured{
				Kind: packet.KindICMPEchoReply, Time: at, RSSI: -60, Src: "s", Dst: "victim",
			}))
			if win.Len(hid("victim"), nanos(at)) < 10 || !gate.Pass("victim", at, 10*time.Second) {
				continue
			}
			for _, e := range win.Events(nil, hid("victim"), nanos(at)) {
				if nanos(at)-e.At > int64(5*time.Second) {
					return false // stale event survived pruning
				}
			}
			if !lastAlert.IsZero() && at.Sub(lastAlert) < 10*time.Second {
				return false // alerted during cooldown
			}
			lastAlert = at
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// obs is a capture as a flow table hands it to a tracker: with its
// identity handles and its capture nanoseconds.
func obs(c *packet.Captured) (*packet.Captured, int64) { return c.Identify(), c.Nanos() }

// hid is the identity handle of a test NodeID.
func hid(id packet.NodeID) packet.Handle { return packet.HandleOf(id) }

// nanos is a test time as capture nanoseconds.
func nanos(t time.Time) int64 { return t.UnixNano() }
