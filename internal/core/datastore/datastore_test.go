package datastore

import (
	"bytes"
	"io"
	"slices"
	"sync"
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

	var replayed []*packet.Captured
	n, skipped, err := Replay(&buf, func(c *packet.Captured) { replayed = append(replayed, c) })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != 5 || skipped != 0 {
		t.Errorf("replayed=%d skipped=%d", n, skipped)
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
	if _, _, err := Replay(bytes.NewReader([]byte("garbage....")), func(*packet.Captured) {}); err == nil {
		t.Error("expected error for corrupt stream")
	}
}

func TestFlushWithoutLog(t *testing.T) {
	if err := New(4).FlushLog(); err != nil {
		t.Errorf("FlushLog without log: %v", err)
	}
}

// TestSnapshotToSince: SnapshotTo writes the packets appended since a
// running total and still in the window — everything for since 0,
// nothing (but a valid empty stream) when none arrived, and no more
// than the window when more arrived than it holds — and returns the
// total to resume from.
func TestSnapshotToSince(t *testing.T) {
	s := New(4)
	snapshot := func(since uint64) (secs []int, total uint64) {
		t.Helper()
		var buf bytes.Buffer
		n, total, err := s.SnapshotTo(&buf, since)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Replay(&buf, func(c *packet.Captured) { secs = append(secs, int(c.Time.Unix()-1500000000)) })
		if err != nil || n != len(secs) {
			t.Fatalf("SnapshotTo(since %d) reported %d records, stream replays %d (err %v)", since, n, len(secs), err)
		}
		return secs, total
	}
	equal := slices.Equal[[]int]
	for i := 0; i < 3; i++ {
		_ = s.Append(capAt(i))
	}
	got, total := snapshot(0)
	if !equal(got, []int{0, 1, 2}) || total != 3 {
		t.Errorf("since 0 of 3: %v, total %d", got, total)
	}
	if got, again := snapshot(total); len(got) != 0 || again != total {
		t.Errorf("nothing new since %d: %v, total %d", total, got, again)
	}
	_ = s.Append(capAt(3))
	_ = s.Append(capAt(4))
	if got, next := snapshot(total); !equal(got, []int{3, 4}) || next != 5 {
		t.Errorf("two new since %d: %v, total %d", total, got, next)
	}
	for i := 5; i < 12; i++ {
		_ = s.Append(capAt(i))
	}
	// Seven arrived since 5; the window holds the last four of them.
	if got, next := snapshot(5); !equal(got, []int{8, 9, 10, 11}) || next != 12 {
		t.Errorf("seven new since 5 in a window of 4: %v, total %d", got, next)
	}
	if got, _ := snapshot(0); !equal(got, []int{8, 9, 10, 11}) {
		t.Errorf("since 0: %v, want the whole window", got)
	}
}

// TestStoreLogAllocs: with a disk log on, appending a frame allocates
// nothing once the log's buffers have grown — the outermost layer is
// re-encoded into the store's buffer and written as a record it owns.
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

// TestSnapshotToConcurrent: SnapshotTo encodes through one encoder the
// store keeps, so calls from two goroutines, beside a third appending to
// a logged store, must each still write a whole, replayable stream.
// Run it under -race.
func TestSnapshotToConcurrent(t *testing.T) {
	s := New(64)
	s.SetLog(io.Discard)
	for i := range 64 {
		_ = s.Append(capAt(i))
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 64; i < 2000; i++ {
			if err := s.Append(capAt(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			for range 50 {
				var buf bytes.Buffer
				n, _, err := s.SnapshotTo(&buf, 0)
				if err != nil {
					t.Error(err)
					return
				}
				recs, err := trace.ReadAll(&buf)
				if err != nil || len(recs) != n || n != 64 {
					t.Errorf("SnapshotTo wrote %d records, the stream holds %d (err %v), want the 64-frame window", n, len(recs), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
