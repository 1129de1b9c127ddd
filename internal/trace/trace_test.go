package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

func sampleRecords() []*Record {
	t0 := time.Unix(1500000000, 0).UTC()
	return []*Record{
		{
			Time:   t0,
			Medium: packet.MediumIEEE802154,
			RSSI:   -61.5,
			Raw:    stack.BuildCTPData(5, 3, 5, 1, 0, 100, []byte("r1")),
		},
		{
			Time:   t0.Add(3 * time.Second),
			Medium: packet.MediumIEEE802154,
			RSSI:   -72.25,
			Raw:    stack.BuildCTPBeacon(3, 1, 30, 2),
			Truth:  &packet.GroundTruth{Attack: "sinkhole", Instance: 7, Attacker: "0x0003", Victim: "0x0001"},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := sampleRecords()
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d", w.Count())
	}

	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d, want %d", len(got), len(recs))
	}
	for i, g := range got {
		want := recs[i]
		if !g.Time.Equal(want.Time) || g.Medium != want.Medium || g.RSSI != want.RSSI {
			t.Errorf("record %d metadata mismatch: %+v", i, g)
		}
		if !bytes.Equal(g.Raw, want.Raw) {
			t.Errorf("record %d raw mismatch", i)
		}
	}
	if got[0].Truth != nil {
		t.Error("record 0 should have no truth")
	}
	tr := got[1].Truth
	if tr == nil || tr.Attack != "sinkhole" || tr.Instance != 7 || tr.Attacker != "0x0003" || tr.Victim != "0x0001" {
		t.Errorf("truth mismatch: %+v", tr)
	}
}

func TestRecordDecode(t *testing.T) {
	rec := sampleRecords()[0]
	c, err := rec.Decode()
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if c.Kind != packet.KindCTPData || !c.Time.Equal(rec.Time) || c.RSSI != rec.RSSI {
		t.Errorf("capture mismatch: %+v", c)
	}
}

func TestReplay(t *testing.T) {
	recs := sampleRecords()
	recs = append(recs, &Record{Time: time.Now(), Medium: packet.MediumIEEE802154, Raw: []byte{0xba}})
	var kinds []packet.Kind
	skipped := Replay(recs, func(c *packet.Captured) { kinds = append(kinds, c.Kind) })
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if len(kinds) != 2 || kinds[0] != packet.KindCTPData || kinds[1] != packet.KindCTPBeacon {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("records = %d, want 0", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("XXXX\x01")))
	if _, err := r.Read(); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestBadVersion(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("KTRC\x09")))
	if _, err := r.Read(); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v, want ErrBadVersion", err)
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r := NewReader(bytes.NewReader(data[:len(data)-4]))
	_, err := r.Read()
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestEOFAfterRecords(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.Read(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

// TestReadRawIndependent pins the aliasing contract of Reader.Read: Raw
// is a piece of a slab no other record's Raw uses, so consecutive
// records share no memory, and its capacity is clipped, so appending to
// it cannot reach the next record's bytes.
func TestReadRawIndependent(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	first, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if cap(first.Raw) != len(first.Raw) {
		t.Fatalf("Raw has cap %d beyond len %d: an append would write into the record body", cap(first.Raw), len(first.Raw))
	}
	for i := range first.Raw {
		first.Raw[i] = 0xEE
	}
	second, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Raw, recs[1].Raw) {
		t.Errorf("second record's Raw changed by writes to the first: % x", second.Raw)
	}
	for i := range second.Raw {
		second.Raw[i] = 0xDD
	}
	if bytes.Contains(first.Raw, []byte{0xDD}) {
		t.Error("records share memory: a write to the second reached the first")
	}
}

func TestMerge(t *testing.T) {
	t0 := time.Unix(1500000000, 0).UTC()
	at := func(sec int) *Record {
		return &Record{Time: t0.Add(time.Duration(sec) * time.Second), Medium: packet.MediumWiFi}
	}
	clean := []*Record{at(0), at(2), at(4)}
	attackRecs := []*Record{at(1), at(2), at(3)}
	merged := Merge(clean, attackRecs)
	if len(merged) != 6 {
		t.Fatalf("merged = %d", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time.Before(merged[i-1].Time) {
			t.Fatalf("merge not time-ordered at %d", i)
		}
	}
	// Tie at t=2 preserves argument order (clean first).
	if merged[2] != clean[1] || merged[3] != attackRecs[1] {
		t.Error("tie-break order wrong")
	}
	if got := Merge(); len(got) != 0 {
		t.Error("empty merge")
	}
	if got := Merge(clean); len(got) != 3 {
		t.Error("single-stream merge")
	}
}

func TestQuickMetadataRoundTrip(t *testing.T) {
	prop := func(nanos int64, rssi float64, raw []byte, attack string, inst uint8) bool {
		rec := &Record{
			Time:   time.Unix(0, nanos).UTC(),
			Medium: packet.MediumWiFi,
			RSSI:   rssi,
			Raw:    raw,
			Truth:  &packet.GroundTruth{Attack: attack, Instance: int(inst), Attacker: "a", Victim: "v"},
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Write(rec) != nil || w.Flush() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		sameRSSI := g.RSSI == rssi || (rssi != rssi && g.RSSI != g.RSSI) // NaN-safe
		return g.Time.Equal(rec.Time) && sameRSSI && bytes.Equal(g.Raw, raw) &&
			g.Truth.Attack == attack && g.Truth.Instance == int(inst)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWriteAllocs pins the writer's per-record cost: once its scratch
// buffer has grown to the largest record, Write allocates nothing —
// with or without a ground-truth label. (Before the scratch buffer:
// ≈ 5 allocations per record, the body growing from nil through every
// append.) It serves the Data Store's disk log, the durable state log
// and every recorded scenario alike.
func TestWriteAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	recs := sampleRecords()
	for _, r := range recs { // warm: header written, scratch grown
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("a warmed Writer allocates %v objects per %d records, want 0", avg, len(recs))
	}
}

// TestReaderAllocs pins the reader's per-record cost: a record comes
// back by value, so only its raw frame costs anything — one slab per
// slabSize bytes of raw frames (a slab is abandoned when the next frame
// no longer fits, so it may hold up to a frame less). What a stream costs
// once — the header it reads, the body buffer it reuses, the first slab
// — is measured on a one-record stream and taken off. A heap Record per
// read cost one allocation more each, a separate body per record a
// second.
func TestReaderAllocs(t *testing.T) {
	const n = 1000
	rec := sampleRecords()[0] // no ground truth: its strings would allocate too
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for range n {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	var src bytes.Reader
	br := bufio.NewReader(&src)
	read := func(records int) float64 {
		return testing.AllocsPerRun(10, func() {
			src.Reset(stream)
			br.Reset(&src)
			r := Reader{r: br}
			for range records {
				if _, err := r.Read(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	perSlab := slabSize / len(rec.Raw)
	slabs := (n + perSlab - 1) / perSlab
	got := read(n) - read(1)
	if want := float64(slabs - 1); got != want {
		t.Errorf("reading %d records of %d-byte frames costs %v allocations more than reading one, want %v (%d slabs, nothing per record)", n, len(rec.Raw), got, want, slabs)
	}
}
