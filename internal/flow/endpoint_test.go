package flow

import (
	"net/netip"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

// idCap builds a synthetic 802.15.4 capture for identity trackers.
func idCap(id packet.NodeID, rssi float64, at time.Time) *packet.Captured {
	return (&packet.Captured{
		Time:        at,
		Medium:      packet.MediumIEEE802154,
		Kind:        packet.KindCTPData,
		Src:         id,
		Dst:         "sink",
		Transmitter: id,
		RSSI:        rssi,
	}).Identify()
}

func TestVictimWindowMaskAndPrune(t *testing.T) {
	w := NewVictimWindow(MaskOf(packet.KindICMPEchoReply), 5*time.Second)

	// Non-matching kinds never enter the window.
	w.Observe(obs(&packet.Captured{Kind: packet.KindICMPEchoRequest, Dst: "v", Time: t0}))
	if w.Len(hid("v"), nanos(t0)) != 0 {
		t.Fatal("masked-out kind entered the window")
	}

	mk := func(src packet.NodeID, at time.Time, rssi float64) *packet.Captured {
		return &packet.Captured{Kind: packet.KindICMPEchoReply, Src: src, Dst: "v", Time: at, RSSI: rssi}
	}
	w.Observe(obs(mk("a", t0, -50)))
	w.Observe(obs(mk("b", t0.Add(3*time.Second), -55)))
	// Read 7s after the first event: "a" has aged out of the 5s
	// window, "b" at age 4s survives (windowing is read-side, against
	// the reader's clock — storage is never time-pruned).
	w.Observe(obs(mk("c", t0.Add(7*time.Second), -60)))
	if got := w.Len(hid("v"), nanos(t0.Add(7*time.Second))); got != 2 {
		t.Errorf("Len = %d, want 2 (stale event counted in window)", got)
	}
	// Events appends to the caller's buffer and keeps what it held.
	evs := w.Events([]Event{{Src: "held"}}, hid("v"), nanos(t0.Add(7*time.Second)))
	if len(evs) != 3 || evs[0].Src != "held" {
		t.Fatalf("Events = %+v, want the held event then the window", evs)
	}
	evs = evs[1:]
	if evs[0].Src != "b" || evs[1].Src != "c" {
		t.Errorf("Events = %+v, want b then c", evs)
	}
	if evs[0].RSSI != -55 || evs[1].At != nanos(t0.Add(7*time.Second)) {
		t.Errorf("event metadata lost: %+v", evs)
	}
	// Windows are per destination.
	if w.Len(hid("other"), nanos(t0.Add(7*time.Second))) != 0 {
		t.Error("window leaked across destinations")
	}
	// Standalone trackers ignore Release.
	w.Release()
}

func TestTCPHandshakeCompletions(t *testing.T) {
	h := NewTCPHandshakes(10 * time.Second)
	cli := netip.MustParseAddr("10.0.0.1")
	srv := netip.MustParseAddr("10.0.0.2")
	pkt := func(raw []byte, at time.Time) *packet.Captured {
		c, err := stack.Decode(packet.MediumWired, raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		c.Time = at
		return c
	}

	// A pure ACK with no open handshake counts nothing.
	h.Observe(obs(pkt(stack.BuildTCP(cli, srv, 10000, 443, tcp.FlagACK, 1, 1, 1, nil), t0)))
	if got := h.Completions(hid(pkt(stack.BuildTCP(cli, srv, 10000, 443, tcp.FlagACK, 1, 1, 1, nil), t0).Dst), nanos(t0)); got != 0 {
		t.Errorf("completions without SYN = %d, want 0", got)
	}

	// SYN then handshake-completing pure ACK.
	syn := pkt(stack.BuildTCP(cli, srv, 10000, 443, tcp.FlagSYN, 1, 0, 2, nil), t0)
	h.Observe(obs(syn))
	ack := pkt(stack.BuildTCP(cli, srv, 10000, 443, tcp.FlagACK, 2, 100, 3, nil), t0.Add(time.Second))
	h.Observe(obs(ack))
	if got := h.Completions(hid(ack.Dst), nanos(t0.Add(time.Second))); got != 1 {
		t.Errorf("completions = %d, want 1", got)
	}

	// An ACK carrying payload is data, not a handshake completion.
	h.Observe(obs(pkt(stack.BuildTCP(cli, srv, 10001, 443, tcp.FlagSYN, 1, 0, 4, nil), t0.Add(2*time.Second))))
	h.Observe(obs(pkt(stack.BuildTCP(cli, srv, 10001, 443, tcp.FlagACK, 2, 100, 5, []byte("data")), t0.Add(3*time.Second))))
	if got := h.Completions(hid(ack.Dst), nanos(t0.Add(3*time.Second))); got != 1 {
		t.Errorf("payload ACK counted as completion: %d, want 1", got)
	}

	// Completions age out of the window.
	if got := h.Completions(hid(ack.Dst), nanos(t0.Add(time.Minute))); got != 0 {
		t.Errorf("completions after window = %d, want 0", got)
	}
}

func TestIdentityStatsCluster(t *testing.T) {
	const (
		tol       = 5.0
		minFrames = 3
		warmup    = 10 * time.Second
	)
	s := NewIdentityStats(0.3, packet.MediumIEEE802154)

	// Pre-existing identity: present from the tracker's first packet.
	for i := 0; i < minFrames; i++ {
		s.Observe(obs(idCap("old", -60, t0.Add(time.Duration(i)*time.Second))))
	}
	// Wrong-medium and anonymous frames never count.
	wifi := idCap("wifi", -60, t0)
	wifi.Medium = packet.MediumWiFi
	s.Observe(obs(wifi))
	anon := idCap("", -60, t0)
	s.Observe(obs(anon))

	// Three new identities appear after warmup, co-located around -60 dB,
	// plus one new identity far away and one without enough frames.
	late := t0.Add(warmup + time.Second)
	for i := 0; i < minFrames; i++ {
		at := late.Add(time.Duration(i) * time.Second)
		s.Observe(obs(idCap("n1", -60, at)))
		s.Observe(obs(idCap("n2", -61, at)))
		s.Observe(obs(idCap("n3", -59, at)))
		s.Observe(obs(idCap("far", -90, at)))
	}
	s.Observe(obs(idCap("sparse", -60, late)))

	got := s.Cluster(hid("n1"), tol, minFrames, warmup)
	want := []packet.NodeID{"n1", "n2", "n3"}
	if len(got) != len(want) {
		t.Fatalf("cluster = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cluster = %v, want %v", got, want)
		}
	}

	// A center that does not qualify yields no cluster at all.
	if c := s.Cluster(hid("old"), tol, minFrames, warmup); c != nil {
		t.Errorf("pre-warmup center clustered: %v", c)
	}
	if c := s.Cluster(hid("sparse"), tol, minFrames, warmup); c != nil {
		t.Errorf("under-minFrames center clustered: %v", c)
	}
	if c := s.Cluster(hid("ghost"), tol, minFrames, warmup); c != nil {
		t.Errorf("unknown center clustered: %v", c)
	}
}

func TestIdentityMotionJumps(t *testing.T) {
	m := NewIdentityMotion(MotionConfig{
		Medium:     packet.MediumIEEE802154,
		Threshold:  10,
		Window:     30 * time.Second,
		Alpha:      0.3,
		MinSamples: 2,
	})
	// Two samples of warmup, then the RSSI teleports: one jump.
	m.Observe(obs(idCap("r", -60, t0)))
	m.Observe(obs(idCap("r", -60, t0.Add(time.Second))))
	jumpAt := t0.Add(2 * time.Second)
	m.Observe(obs(idCap("r", -30, jumpAt)))
	s := m.Snapshot(hid("r"))
	if s.Jumps != 1 || s.LastJump != nanos(jumpAt) {
		t.Errorf("snapshot = %+v, want 1 jump at %v", s, jumpAt)
	}

	// A second, stable identity halves the jumpy fraction.
	for i := 0; i < 4; i++ {
		m.Observe(obs(idCap("calm", -70, t0.Add(time.Duration(i)*time.Second))))
	}
	if got := m.JumpyFraction(); got != 0.5 {
		t.Errorf("JumpyFraction = %v, want 0.5", got)
	}

	// Evidence ages out of the window.
	m.Observe(obs(idCap("r", -30, jumpAt.Add(time.Minute))))
	if s := m.Snapshot(hid("r")); s.Jumps != 0 {
		t.Errorf("jump survived the window: %+v", s)
	}
	if s := m.Snapshot(hid("nobody")); s.Jumps != 0 || s.Flips != 0 {
		t.Errorf("unknown identity has evidence: %+v", s)
	}
}

func TestIdentityMotionFlips(t *testing.T) {
	m := NewIdentityMotion(MotionConfig{
		Medium:     packet.MediumIEEE802154,
		Threshold:  10,
		Window:     30 * time.Second,
		Alpha:      0.3,
		MinSamples: 2,
	})
	// CTP data frames originated by the transmitter itself (Src ==
	// Transmitter) carry a trustworthy sequence counter.
	ctpCap := func(seq uint8, at time.Time) *packet.Captured {
		raw := stack.BuildCTPData(7, 2, 7, seq, 1, 10, []byte{0x01})
		c, err := stack.Decode(packet.MediumIEEE802154, raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		c.Time = at
		c.RSSI = -60
		return c
	}
	m.Observe(obs(ctpCap(5, t0)))
	m.Observe(obs(ctpCap(6, t0.Add(time.Second)))) // monotonic: no flip
	flipAt := t0.Add(2 * time.Second)
	m.Observe(obs(ctpCap(4, flipAt))) // regression: two counters interleaved
	id := ctpCap(4, flipAt).Transmitter
	s := m.Snapshot(hid(id))
	if s.Flips != 1 || s.LastFlip != nanos(flipAt) {
		t.Errorf("snapshot = %+v, want 1 flip at %v", s, flipAt)
	}
	// A wraparound (255 -> 0) is not a regression (fresh identity so
	// the prior flip evidence cannot interfere).
	wrapCap := func(seq uint8, at time.Time) *packet.Captured {
		raw := stack.BuildCTPData(8, 2, 8, seq, 1, 10, []byte{0x01})
		c, err := stack.Decode(packet.MediumIEEE802154, raw)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		c.Time = at
		c.RSSI = -60
		return c
	}
	m.Observe(obs(wrapCap(255, t0)))
	m.Observe(obs(wrapCap(0, t0.Add(time.Second))))
	if s := m.Snapshot(hid(wrapCap(0, t0).Transmitter)); s.Flips != 0 {
		t.Errorf("wraparound counted as flip: %+v", s)
	}
}

func TestTrackerDedupAndRelease(t *testing.T) {
	tbl := NewTable(Config{})
	mask := MaskOf(packet.KindICMPEchoReply)

	w1 := tbl.VictimWindow(mask, 5*time.Second)
	w2 := tbl.VictimWindow(mask, 5*time.Second)
	if w1 != w2 {
		t.Error("same config yielded distinct victim windows")
	}
	if w3 := tbl.VictimWindow(mask, 10*time.Second); w3 == w1 {
		t.Error("distinct configs shared a victim window")
	} else {
		w3.Release()
	}

	// The table drives the shared tracker once per packet.
	c := cap1("atk", "v", t0)
	c.Kind = packet.KindICMPEchoReply
	tbl.Update(c)
	if got := w1.Len(hid("v"), nanos(t0)); got != 1 {
		t.Errorf("table did not drive tracker: Len = %d, want 1", got)
	}

	// One release keeps the shared handle alive for the other holder.
	w2.Release()
	c2 := cap1("atk", "v", t0.Add(time.Second))
	c2.Kind = packet.KindICMPEchoReply
	tbl.Update(c2)
	if got := w1.Len(hid("v"), nanos(t0.Add(time.Second))); got != 2 {
		t.Errorf("tracker detached while still held: Len = %d, want 2", got)
	}

	// The last release detaches it: further packets are not observed,
	// and the next acquire builds a fresh tracker.
	w1.Release()
	c3 := cap1("atk", "v", t0.Add(2*time.Second))
	c3.Kind = packet.KindICMPEchoReply
	tbl.Update(c3)
	if got := w1.Len(hid("v"), nanos(t0.Add(2*time.Second))); got != 2 {
		t.Errorf("released tracker still observed packets: Len = %d", got)
	}
	if w4 := tbl.VictimWindow(mask, 5*time.Second); w4 == w1 {
		t.Error("released tracker was resurrected instead of rebuilt")
	} else {
		w4.Release()
	}

	// Motion trackers dedup by full config.
	cfg := MotionConfig{Medium: packet.MediumIEEE802154, Threshold: 10, Window: 30 * time.Second, Alpha: 0.3, MinSamples: 2}
	m1 := tbl.Motion(cfg)
	m2 := tbl.Motion(cfg)
	if m1 != m2 {
		t.Error("same config yielded distinct motion trackers")
	}
	m1.Release()
	m2.Release()

	// So do forwarding watches: the selective-forwarding and blackhole
	// modules fold a frame into one watch, once.
	sel, bh := tbl.Forwarding(fwdCfg), tbl.Forwarding(fwdCfg)
	if sel != bh {
		t.Error("alike-configured callers got distinct forwarding watches")
	}
	slow := fwdCfg
	slow.Timeout = time.Second
	if odd := tbl.Forwarding(slow); odd == sel {
		t.Error("differently configured caller shares the forwarding watch")
	} else {
		odd.Release()
	}
	// A cooldown ledger sits beside the evidence but observes nothing.
	gate := tbl.Cooldown("mod")
	if n := len(tbl.trk.observe); n != 1 {
		t.Errorf("%d trackers observe each frame, want 1 (the forwarding watch)", n)
	}
	gate.Release()
	sel.Release()
	bh.Release()
	if n := len(tbl.trk.observe); n != 0 {
		t.Errorf("%d trackers still observe after their last release", n)
	}
	if f := tbl.Forwarding(fwdCfg); f == sel {
		t.Error("fully released forwarding watch was resurrected instead of recreated")
	} else {
		f.Release()
	}
}

// TestIdentityMotionSteadyAllocs: once every evidence queue has grown to
// its window, observing allocates nothing — one identity jumps on every
// frame, one wobbles on every frame and one regresses its sequence
// counter on every other frame, each queue pruned to a 5 s window. A
// queue sliced from the front lost capacity with each prune, and every
// few frames its append reallocated.
func TestIdentityMotionSteadyAllocs(t *testing.T) {
	m := NewIdentityMotion(MotionConfig{
		Medium:     packet.MediumIEEE802154,
		Threshold:  6,
		Window:     5 * time.Second,
		Alpha:      0.3,
		MinSamples: 2,
	})
	const warm, steps = 100, 500
	var frames []*packet.Captured
	for i := range warm + 2*steps {
		at := t0.Add(time.Duration(i) * time.Second)
		jumpy, wobbly := -60.0, -60.0
		if i%2 == 1 {
			jumpy, wobbly = -30, -67
		}
		raw := stack.BuildCTPData(7, 2, 7, uint8(5-i%2), 1, 10, []byte{0x01})
		seq, err := stack.Decode(packet.MediumIEEE802154, raw)
		if err != nil {
			t.Fatal(err)
		}
		seq.Time, seq.RSSI = at, -60
		frames = append(frames, idCap("jumpy", jumpy, at), idCap("wobbly", wobbly, at), seq.Identify())
	}
	next := 0
	step := func() {
		for range 3 {
			m.Observe(obs(frames[next]))
			next++
		}
	}
	for range warm {
		step()
	}
	// One run of all the steps, after a warm-up run of as many:
	// AllocsPerRun truncates its average, which would hide an
	// allocation every few steps.
	allocs := testing.AllocsPerRun(1, func() {
		for range steps {
			step()
		}
	})
	if s := m.Snapshot(hid("jumpy")); s.Jumps < 5 {
		t.Fatalf("jumpy identity holds %d jumps, want a full window", s.Jumps)
	}
	if s := m.Snapshot(frames[2].TransmitterH); s.Flips < 2 {
		t.Fatalf("regressing identity holds %d flips, want a full window", s.Flips)
	}
	if got := m.JumpyFraction(); got != 2.0/3 {
		t.Fatalf("JumpyFraction = %v, want the jumpy and the wobbly identity in motion", got)
	}
	if allocs != 0 {
		t.Errorf("a warmed motion tracker allocates %v objects over %d steps of three frames, want 0", allocs, steps)
	}
}
