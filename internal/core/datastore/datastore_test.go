package datastore

import (
	"bytes"
	"io"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

func capAt(sec int) *packet.Captured {
	raw := stack.BuildCTPBeacon(uint16(sec%250+1), 0, 10, uint8(sec))
	c, err := stack.Decode(packet.MediumIEEE802154, raw)
	if err != nil {
		panic(err)
	}
	c.Time = time.Unix(int64(1500000000+sec), 0).UTC()
	c.RSSI = -60
	return c
}

func TestSlidingWindow(t *testing.T) {
	s := New(4)
	for i := 0; i < 10; i++ {
		if err := s.Append(capAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 4 || s.Total() != 10 || s.Capacity() != 4 {
		t.Errorf("len=%d total=%d cap=%d", s.Len(), s.Total(), s.Capacity())
	}
	recent := s.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent = %d", len(recent))
	}
	// Oldest-first: packets 6,7,8,9.
	for i, c := range recent {
		want := time.Unix(int64(1500000000+6+i), 0).UTC()
		if !c.Time.Equal(want) {
			t.Errorf("recent[%d].Time = %v, want %v", i, c.Time, want)
		}
	}
	if got := s.Recent(2); len(got) != 2 || !got[1].Time.Equal(recent[3].Time) {
		t.Errorf("Recent(2) wrong: %v", got)
	}
}

func TestWindowSmallerThanCapacity(t *testing.T) {
	s := New(100)
	for i := 0; i < 3; i++ {
		_ = s.Append(capAt(i))
	}
	if got := len(s.Recent(0)); got != 3 {
		t.Errorf("recent = %d, want 3", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if New(0).Capacity() != DefaultWindow {
		t.Error("default capacity")
	}
	if New(-5).Capacity() != DefaultWindow {
		t.Error("negative capacity")
	}
}

func TestDiskLogAndReplay(t *testing.T) {
	var buf bytes.Buffer
	s := New(8)
	s.SetLog(&buf)
	for i := 0; i < 5; i++ {
		if err := s.Append(capAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushLog(); err != nil {
		t.Fatal(err)
	}

	recs, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	var replayed []*packet.Captured
	skipped := trace.Replay(recs, func(c *packet.Captured) { replayed = append(replayed, c) })
	if len(replayed) != 5 || skipped != 0 {
		t.Errorf("replayed=%d skipped=%d", len(replayed), skipped)
	}
	// Replay must be transparent: same kinds, times and RSSI as live.
	for i, c := range replayed {
		if c.Kind != packet.KindCTPBeacon || c.RSSI != -60 {
			t.Errorf("replayed[%d] = %+v", i, c)
		}
		if !c.Time.Equal(time.Unix(int64(1500000000+i), 0).UTC()) {
			t.Errorf("replayed[%d].Time = %v", i, c.Time)
		}
	}
}

func TestReplayCorruptStream(t *testing.T) {
	if _, err := trace.ReadAll(bytes.NewReader([]byte("garbage...."))); err == nil {
		t.Error("expected error for corrupt stream")
	}
}

func TestFlushWithoutLog(t *testing.T) {
	if err := New(4).FlushLog(); err != nil {
		t.Errorf("FlushLog without log: %v", err)
	}
}

// TestStoreLogAllocs: with a disk log on, appending a frame allocates
// nothing once the store's buffers and the log's have grown — the
// outermost layer is encoded once, for the ring, and the log writes the
// ring's bytes.
// Encoding into a fresh slice per frame cost one each.
func TestStoreLogAllocs(t *testing.T) {
	s := New(16)
	s.SetLog(io.Discard)
	frames := []*packet.Captured{capAt(1), capAt(2), capAt(3)}
	frames[1].Truth = &packet.GroundTruth{Attack: "sinkhole", Instance: 1, Attacker: "0x0002", Victim: "0x0001"}
	for _, c := range frames { // warm: header written, buffers grown
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, c := range frames {
			if err := s.Append(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("a logged Append allocates %v objects per %d frames, want 0", avg, len(frames))
	}
}

// TestAppendAllocs: once the ring has grown to a full window, Append
// allocates nothing — it encodes the frame into the store's body buffer,
// copies the record into the ring and keeps no pointer to the frame.
func TestAppendAllocs(t *testing.T) {
	s := New(64)
	frames := make([]*packet.Captured, 64)
	for i := range frames {
		frames[i] = capAt(i)
	}
	frames[1].Truth = &packet.GroundTruth{Attack: "sinkhole", Instance: 1, Attacker: "0x0002", Victim: "0x0001"}
	for range 3 { // warm: the ring grows to the window and wraps
		for _, c := range frames {
			if err := s.Append(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, c := range frames {
			if err := s.Append(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("Append allocates %v objects per %d frames of a full window, want 0", avg, len(frames))
	}
}

// TestRingSteadyState: a full window of steady traffic wraps around its
// ring lap after lap without laying it out anew, in a ring no more than
// half as large again as the records it holds.
func TestRingSteadyState(t *testing.T) {
	s := New(DefaultWindow)
	for i := range 3 * DefaultWindow {
		if err := s.Append(capAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	ring := &s.ring[0]
	for i := range 5 * DefaultWindow {
		if err := s.Append(capAt(i)); err != nil {
			t.Fatal(err)
		}
	}
	older, newer := s.runs(0, s.size)
	live := len(older) + len(newer)
	if &s.ring[0] != ring {
		t.Error("five laps of steady traffic laid the ring out anew")
	}
	if len(s.ring) > live+live/2 {
		t.Errorf("the ring is %d bytes for %d bytes of records, over 1.5x", len(s.ring), live)
	}
}

// TestLogIsTheWindow: with a disk log on, the log's bytes are a trace
// header and the window's record bytes, for a window that has not
// wrapped — the frame is encoded once, and both copy it.
func TestLogIsTheWindow(t *testing.T) {
	var log bytes.Buffer
	s := New(16)
	s.SetLog(&log)
	for i := range 10 {
		c := capAt(i)
		if i%3 == 0 {
			c.Truth = &packet.GroundTruth{Attack: "sinkhole", Instance: i, Attacker: "0x0002", Victim: "0x0001"}
		}
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushLog(); err != nil {
		t.Fatal(err)
	}
	older, newer := s.runs(0, s.size)
	window := append(append(trace.AppendHeader(nil), older...), newer...)
	if !bytes.Equal(log.Bytes(), window) {
		t.Errorf("the disk log is %d bytes, a header and the window %d: not the same encoding", log.Len(), len(window))
	}
}

// TestUnencodableCapture: a capture whose outermost layer cannot encode
// is counted in Total but kept neither in the window nor in the log.
func TestUnencodableCapture(t *testing.T) {
	var log bytes.Buffer
	s := New(4)
	s.SetLog(&log)
	bare := &packet.Captured{Time: time.Unix(1500000000, 0), Medium: packet.MediumIEEE802154}
	for _, c := range []*packet.Captured{capAt(0), bare, capAt(1)} {
		if err := s.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(&log)
	if s.Total() != 3 || s.Len() != 2 || len(s.Recent(0)) != 2 || err != nil || len(recs) != 2 {
		t.Errorf("total %d, window %d, Recent %d, logged %d (%v): want 3, 2, 2, 2",
			s.Total(), s.Len(), len(s.Recent(0)), len(recs), err)
	}
}
