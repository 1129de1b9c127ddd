package netsim

import (
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	// Same-time events fire in scheduling order.
	s.After(1*time.Second, func() { got = append(got, 10) })
	s.RunFor(10 * time.Second)
	want := []int{1, 10, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunStopsAtEnd(t *testing.T) {
	s := New(1)
	fired := false
	s.After(5*time.Second, func() { fired = true })
	s.RunFor(2 * time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	s.RunFor(10 * time.Second)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	count := 0
	s.Every(s.Now().Add(time.Second), time.Second, func() bool {
		count++
		return count < 5
	})
	s.RunFor(time.Minute)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	s.At(s.Now().Add(-time.Second), func() {})
}

func TestVirtualClockAdvances(t *testing.T) {
	s := New(1)
	var at time.Time
	s.After(42*time.Second, func() { at = s.Now() })
	s.RunFor(time.Minute)
	if want := Epoch.Add(42 * time.Second); !at.Equal(want) {
		t.Errorf("now = %v, want %v", at, want)
	}
}

func TestRadioRangeAndRSSI(t *testing.T) {
	m := DefaultRadio()
	m.SigmaDB = 0 // deterministic
	near, ok := m.Receive(0, Position{}, Position{X: 5}, nil)
	if !ok {
		t.Fatal("5 m reception failed")
	}
	far, ok := m.Receive(0, Position{}, Position{X: 50}, nil)
	if !ok {
		t.Fatal("50 m reception failed")
	}
	if near <= far {
		t.Errorf("RSSI should decay: near=%f far=%f", near, far)
	}
	if _, ok := m.Receive(0, Position{}, Position{X: 200}, nil); ok {
		t.Error("200 m should be out of range")
	}
	r := m.Range(0)
	if r < 60 || r > 75 {
		t.Errorf("Range(0) = %f, want ~67 m", r)
	}
}

func TestRadioSubMinimumDistance(t *testing.T) {
	m := DefaultRadio()
	m.SigmaDB = 0
	same, _ := m.Receive(0, Position{}, Position{}, nil)
	ref, _ := m.Receive(0, Position{}, Position{X: 1}, nil)
	if same != ref {
		t.Errorf("d<D0 should clamp to D0: %f vs %f", same, ref)
	}
}

func TestTransmitDeliversToSnifferAndNodes(t *testing.T) {
	s := New(7)
	tx := s.AddNode(&Node{Name: "tx", Addr16: 5, Pos: Position{X: 0}})
	rx := s.AddNode(&Node{Name: "rx", Addr16: 1, Pos: Position{X: 10}})
	var nodeGot int
	rx.OnReceive(func(m packet.Medium, raw []byte, from *Node, rssi float64) {
		nodeGot++
		if from != tx {
			t.Errorf("from = %v", from.Name)
		}
		if rssi >= 0 || rssi < -95 {
			t.Errorf("implausible rssi %f", rssi)
		}
	})
	sn := s.AddSniffer("ids", Position{X: 5}, packet.MediumIEEE802154)
	var caps []*packet.Captured
	sn.Subscribe(func(c *packet.Captured) { caps = append(caps, c) })

	raw := stack.BuildCTPData(5, 1, 5, 1, 0, 10, nil)
	s.After(time.Second, func() { tx.Send(packet.MediumIEEE802154, raw) })
	s.RunFor(2 * time.Second)

	if nodeGot != 1 {
		t.Errorf("node receptions = %d, want 1", nodeGot)
	}
	if len(caps) != 1 {
		t.Fatalf("captures = %d, want 1", len(caps))
	}
	c := caps[0]
	if c.Kind != packet.KindCTPData || c.Transmitter != stack.ShortID(5) {
		t.Errorf("capture mismatch: %+v", c)
	}
	if !c.Time.Equal(Epoch.Add(time.Second)) {
		t.Errorf("capture time = %v", c.Time)
	}
}

func TestSnifferMediumFilter(t *testing.T) {
	s := New(7)
	tx := s.AddNode(&Node{Name: "tx", Pos: Position{}})
	sn := s.AddSniffer("ids", Position{X: 1}, packet.MediumWiFi) // WiFi only
	count := 0
	sn.Subscribe(func(*packet.Captured) { count++ })
	s.After(time.Second, func() {
		tx.Send(packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 0, 10, 1))
	})
	s.RunFor(2 * time.Second)
	if count != 0 {
		t.Errorf("802.15.4 frame leaked through WiFi-only sniffer")
	}
}

func TestSnifferCountsDecodeErrors(t *testing.T) {
	s := New(7)
	tx := s.AddNode(&Node{Name: "tx", Pos: Position{}})
	sn := s.AddSniffer("ids", Position{X: 1}, packet.MediumIEEE802154)
	s.After(time.Second, func() { tx.Send(packet.MediumIEEE802154, []byte{0xde, 0xad}) })
	s.RunFor(2 * time.Second)
	if sn.DecodeErrors != 1 || sn.Captures != 0 {
		t.Errorf("errors=%d captures=%d", sn.DecodeErrors, sn.Captures)
	}
}

func TestRevocationSilencesNode(t *testing.T) {
	s := New(7)
	tx := s.AddNode(&Node{Name: "tx", Pos: Position{}})
	sn := s.AddSniffer("ids", Position{X: 1}, packet.MediumIEEE802154)
	count := 0
	sn.Subscribe(func(*packet.Captured) { count++ })
	raw := stack.BuildCTPBeacon(1, 0, 10, 1)
	s.After(time.Second, func() { tx.Send(packet.MediumIEEE802154, raw) })
	s.After(2*time.Second, func() { tx.Revoke() })
	s.After(3*time.Second, func() { tx.Send(packet.MediumIEEE802154, raw) })
	s.After(4*time.Second, func() { tx.Restore() })
	s.After(5*time.Second, func() { tx.Send(packet.MediumIEEE802154, raw) })
	s.RunFor(10 * time.Second)
	if count != 2 {
		t.Errorf("captures = %d, want 2 (revoked frame suppressed)", count)
	}
	if tx.Revoked() {
		t.Error("Restore did not clear revocation")
	}
}

func TestRevokedNodeDoesNotReceive(t *testing.T) {
	s := New(7)
	tx := s.AddNode(&Node{Name: "tx", Pos: Position{}})
	rx := s.AddNode(&Node{Name: "rx", Pos: Position{X: 5}})
	got := 0
	rx.OnReceive(func(packet.Medium, []byte, *Node, float64) { got++ })
	rx.Revoke()
	s.After(time.Second, func() { tx.Send(packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 0, 1, 1)) })
	s.RunFor(2 * time.Second)
	if got != 0 {
		t.Errorf("revoked node received %d frames", got)
	}
}

func TestGroundTruthPropagates(t *testing.T) {
	s := New(7)
	tx := s.AddNode(&Node{Name: "atk", Pos: Position{}})
	sn := s.AddSniffer("ids", Position{X: 1}, packet.MediumIEEE802154)
	var got *packet.GroundTruth
	sn.Subscribe(func(c *packet.Captured) { got = c.Truth })
	truth := &packet.GroundTruth{Attack: "icmp-flood", Instance: 3, Attacker: "0x0005"}
	s.After(time.Second, func() {
		tx.SendTruth(packet.MediumIEEE802154, stack.BuildCTPBeacon(5, 0, 1, 1), truth)
	})
	s.RunFor(2 * time.Second)
	if got == nil || got.Attack != "icmp-flood" || got.Instance != 3 {
		t.Errorf("truth = %+v", got)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	s := New(1)
	s.AddNode(&Node{Name: "a"})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate node")
		}
	}()
	s.AddNode(&Node{Name: "a"})
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		s := New(42)
		tx := s.AddNode(&Node{Name: "tx", Pos: Position{}})
		sn := s.AddSniffer("ids", Position{X: 20}, packet.MediumIEEE802154)
		var rssis []float64
		sn.Subscribe(func(c *packet.Captured) { rssis = append(rssis, c.RSSI) })
		s.Every(s.Now().Add(time.Second), time.Second, func() bool {
			tx.Send(packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 0, 1, 1))
			return true
		})
		s.RunFor(20 * time.Second)
		return rssis
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %f vs %f", i, a[i], b[i])
		}
	}
}
