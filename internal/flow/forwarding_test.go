package flow

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
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

// observer hands captures to a tracker the way a table does.
func observer(tr Tracker) func(*packet.Captured) {
	return func(c *packet.Captured) { tr.Observe(obs(c)) }
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
	now := feedChain(t, observer(w), t0, 3, func(int) bool { return false })
	if got := w.Ratios(nanos(now), nil); len(got) != 0 {
		t.Fatalf("reported below MinSamples: %+v", got)
	}
	// Nine rounds, every other one dropped. The drop of round 8 has not
	// expired yet (no later data frame), so the window holds rounds 0–7.
	w = NewForwardingWatch(fwdCfg)
	now = feedChain(t, observer(w), t0, 9, func(i int) bool { return i%2 == 0 })
	want := []RelayRatio{{Relay: "0x0002", H: hid("0x0002"), Ratio: 0.5, Origins: 1}}
	if got := w.Ratios(nanos(now), nil); !reflect.DeepEqual(got, want) {
		t.Errorf("Ratios = %+v, want %+v", got, want)
	}
	if got := w.DroppedOrigins(hid("0x0002")); !reflect.DeepEqual(got, []uint16{3}) {
		t.Errorf("DroppedOrigins = %v, want [3]", got)
	}
	// The root is handed frames and never forwards: not a relay.
	if got := w.DroppedOrigins(hid("0x0001")); len(got) != 0 {
		t.Errorf("collection root accused of dropping %v", got)
	}
	// Read a window later: everything has aged out, without new frames.
	if got := w.Ratios(nanos(now.Add(fwdCfg.Window+time.Minute)), nil); len(got) != 0 {
		t.Errorf("aged-out outcomes still reported: %+v", got)
	}
}

// dataCap is a CTP data frame of (origin, seq) from tx to dst, built
// without the decoder so a test can mint many cheaply.
func dataCap(tx, dst packet.NodeID, origin uint16, seq uint8, at time.Time) *packet.Captured {
	return (&packet.Captured{Time: at, Medium: packet.MediumIEEE802154, Src: tx, Dst: dst, Transmitter: tx,
		Layers: []packet.Layer{&ctp.Data{Origin: origin, SeqNo: seq}}}).Identify()
}

// relayRounds is a chain origin 4 → 3 → 2 → root 1 (whose beacon the
// caller feeds): round i is three hops of seq i, the middle one both
// satisfying relay 3's hand-off and registering relay 2's; relay 2
// drops every fifth round. play feeds round i at the given time.
type relayRounds [256][3]*packet.Captured

func newRelayRounds() *relayRounds {
	var r relayRounds
	for i := range r {
		r[i] = [3]*packet.Captured{
			dataCap("0x0004", "0x0003", 4, uint8(i), t0),
			dataCap("0x0003", "0x0002", 4, uint8(i), t0),
			dataCap("0x0002", "0x0001", 4, uint8(i), t0),
		}
	}
	return &r
}

func (r *relayRounds) play(w *ForwardingWatch, i int, at time.Time) {
	hops := r[i%len(r)]
	if i%5 == 0 {
		hops[2] = nil
	}
	for h, c := range hops {
		if c != nil {
			c.Time = at.Add(time.Duration(h) * 20 * time.Millisecond)
			w.Observe(obs(c))
		}
	}
}

// TestForwardingWatchAllocs: a frame without a CTP layer costs the
// tracker nothing, and neither does polling the verdict input — at the
// capture time already computed, or at a new one — nor, in steady
// state, a CTP data frame that satisfies one hand-off and registers the
// next, nor the two polls of the forwarding detectors after it.
func TestForwardingWatchAllocs(t *testing.T) {
	w := NewForwardingWatch(fwdCfg)
	now := feedChain(t, observer(w), t0, 12, func(i int) bool { return i%3 == 0 })
	wifi := cap1("a", "b", now)
	if n := testing.AllocsPerRun(100, func() { w.Observe(obs(wifi)) }); n != 0 {
		t.Errorf("Observe of a non-CTP frame: %v allocs, want 0", n)
	}
	buf := w.Ratios(nanos(now), nil)
	if len(buf) != 1 {
		t.Fatalf("Ratios = %+v, want one relay", buf)
	}
	if n := testing.AllocsPerRun(100, func() { buf = w.Ratios(nanos(now), buf) }); n != 0 {
		t.Errorf("Ratios at the computed capture time: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Millisecond)
		buf = w.Ratios(nanos(now), buf)
	}); n != 0 {
		t.Errorf("Ratios at a new capture time: %v allocs, want 0", n)
	}

	// A warmed relay chain: two windows of rounds, 100 ms apart.
	w = NewForwardingWatch(fwdCfg)
	w.Observe(obs(ctpCap(t, stack.BuildCTPBeacon(1, 1, 0, 1), t0)))
	rounds := newRelayRounds()
	round := 0
	next := func() time.Time {
		round++
		return t0.Add(time.Duration(round) * 100 * time.Millisecond)
	}
	for round < 600 {
		rounds.play(w, round, next())
	}
	var sel, bh []RelayRatio
	polls := func(at time.Time) {
		sel = w.Ratios(nanos(at), sel)
		bh = w.Ratios(nanos(at), bh)
	}
	polls(next())
	if len(sel) != 2 {
		t.Fatalf("Ratios = %+v, want relays 0x0002 and 0x0003", sel)
	}
	// The outcome the polls follow: relay 3 is handed a frame and
	// forwards it (frames built outside the measurement).
	hops := make([][2]*packet.Captured, 101)
	for i := range hops {
		seq := uint8(round + i)
		hops[i] = [2]*packet.Captured{dataCap("0x0004", "0x0003", 4, seq, t0), dataCap("0x0003", "0x0002", 4, seq, t0)}
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"a relay round", func() { rounds.play(w, round, next()) }},
		{"the two detector polls after an outcome", func() {
			at := next()
			for h, c := range hops[0] {
				c.Time = at.Add(time.Duration(h) * time.Millisecond)
				w.Observe(obs(c))
			}
			hops = hops[1:]
			polls(at.Add(time.Millisecond))
		}},
		{"a relay round and the two polls", func() {
			at := next()
			rounds.play(w, round, at)
			polls(at.Add(50 * time.Millisecond))
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s: %v allocs, want 0", tc.name, n)
		}
	}
}

// TestForwardingWatchDeadlineBound: the deadline queue holds no more
// entries than the hand-offs registered within the last Timeout —
// satisfied and re-armed ones are dropped once their deadline passes —
// over 100 000 frames of a chain with drops and retransmissions.
func TestForwardingWatchDeadlineBound(t *testing.T) {
	w := NewForwardingWatch(fwdCfg)
	w.Observe(obs(ctpCap(t, stack.BuildCTPBeacon(1, 1, 0, 1), t0)))
	var handed []time.Time // registration times of hand-offs, oldest first
	at := t0
	c := dataCap("", "", 3, 0, t0)
	for i := 0; i < 100000; i++ {
		at = at.Add(time.Duration(7+i%13) * time.Millisecond)
		seq := uint8(i / 3)
		c.Time, c.Layers[0].(*ctp.Data).SeqNo = at, seq
		switch i % 3 {
		case 0: // origin 3 hands seq to relay 2 (again, now and then)
			c.Transmitter, c.Dst = "0x0003", "0x0002"
		case 1: // relay 2 hands it on to relay 4, or drops it
			c.Transmitter, c.Dst = "0x0002", "0x0004"
			if i%7 == 1 {
				c.Transmitter = "0x0003" // a retransmission re-arms relay 2
				c.Dst = "0x0002"
			}
		case 2: // relay 4 delivers to the root
			c.Transmitter, c.Dst = "0x0004", "0x0001"
		}
		c.Src = c.Transmitter
		w.Observe(obs(c))
		if c.Dst != "0x0001" {
			handed = append(handed, at)
		}
		for len(handed) > 0 && at.Sub(handed[0]) > fwdCfg.Timeout {
			handed = handed[1:]
		}
		if n := len(w.deadlines); n > len(handed) {
			t.Fatalf("frame %d: %d queued deadlines, %d hand-offs within the last %v", i, n, len(handed), fwdCfg.Timeout)
		}
	}
}

// TestForwardingWatchSpoofedRelays: link destinations are attacker
// bytes. 100 000 spoofed relays, each handed one frame it drops: the
// watch holds evidence for no more of them than the identity table
// holds identities, they leave the per-frame walk a window later, and
// polling the report then allocates nothing; the last keeps its dropped
// origin.
func TestForwardingWatchSpoofedRelays(t *testing.T) {
	w := NewForwardingWatch(fwdCfg)
	at := t0
	for i := 0; i < 100000; i++ {
		at = at.Add(time.Millisecond)
		w.Observe(obs(dataCap("0x0003", packet.NodeID(fmt.Sprintf("spoof-%d", i)), 3, uint8(i), at)))
		if n := w.recs.Len(); n > packet.IdentityCapacity {
			t.Fatalf("frame %d: evidence for %d relays, over the identity capacity %d", i, n, packet.IdentityCapacity)
		}
	}
	at = at.Add(fwdCfg.Timeout + time.Millisecond)
	w.Observe(obs(dataCap("0x0003", packet.Broadcast, 3, 0, at))) // expires the last hand-offs
	if n := len(w.walk); n == 0 || n > 2*packet.IdentityCapacity {
		t.Fatalf("%d relays on the walk after the drops, want 1..%d", n, 2*packet.IdentityCapacity)
	}
	at = at.Add(fwdCfg.Window + time.Millisecond)
	buf := w.Ratios(nanos(at), nil)
	if len(buf) != 0 || len(w.walk) != 0 {
		t.Fatalf("a window later: report %+v, %d relays on the walk; want none", buf, len(w.walk))
	}
	if n := testing.AllocsPerRun(100, func() {
		at = at.Add(time.Second)
		buf = w.Ratios(nanos(at), buf)
	}); n != 0 {
		t.Errorf("Ratios poll after the flood: %v allocs, want 0", n)
	}
	if got := w.DroppedOrigins(hid("spoof-99999")); !reflect.DeepEqual(got, []uint16{3}) {
		t.Errorf("DroppedOrigins(spoof-99999) = %v, want [3]", got)
	}
}
