package persist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"maps"
	"os"
	"runtime"
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

// windowCapacity is the Data Store capacity openManager builds with.
const windowCapacity = 64

// windowFrames decodes n distinct CTP data frames numbered from from:
// each has its own capture time, RSSI and payload, and every third one a
// ground-truth label, so that a window compared frame for frame cannot
// pass with a record missing, repeated or out of place.
func windowFrames(t testing.TB, from, n int) []*packet.Captured {
	t.Helper()
	out := make([]*packet.Captured, n)
	for j := range out {
		i := from + j
		rec := &trace.Record{
			Time:   time.Unix(1500000000, 0).UTC().Add(time.Duration(i) * 200 * time.Millisecond),
			Medium: packet.MediumIEEE802154,
			RSSI:   -60 - float64(i%17)/4,
			Raw:    stack.BuildCTPData(uint16(2+i%5), 1, uint16(10+i%7), uint8(i), 1, 20, []byte{byte(i >> 8), byte(i)}),
		}
		if i%3 == 0 {
			rec.Truth = &packet.GroundTruth{Attack: "selective-forwarding", Instance: i, Attacker: "0x0003", Victim: "0x0001"}
		}
		c, err := rec.Decode()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		out[j] = c
	}
	return out
}

func appendAll(t testing.TB, store *datastore.Store, frames []*packet.Captured) {
	t.Helper()
	for _, c := range frames {
		if err := store.Append(c); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

// sameWindow compares a restored window with the frames it must hold,
// frame for frame: time, medium, RSSI, raw bytes and ground truth.
func sameWindow(t *testing.T, got *datastore.Store, want []*packet.Captured) {
	t.Helper()
	have := got.Recent(0)
	if len(have) != len(want) {
		t.Fatalf("window holds %d frames, want %d", len(have), len(want))
	}
	type encoder interface{ Encode() []byte }
	for i, c := range have {
		w := want[i]
		if !c.Time.Equal(w.Time) || c.Medium != w.Medium || c.RSSI != w.RSSI {
			t.Fatalf("frame %d = (%v, %v, %v), want (%v, %v, %v)", i, c.Time, c.Medium, c.RSSI, w.Time, w.Medium, w.RSSI)
		}
		if !bytes.Equal(c.Layers[0].(encoder).Encode(), w.Layers[0].(encoder).Encode()) {
			t.Fatalf("frame %d: raw bytes differ", i)
		}
		if (c.Truth == nil) != (w.Truth == nil) || (c.Truth != nil && *c.Truth != *w.Truth) {
			t.Fatalf("frame %d: truth = %+v, want %+v", i, c.Truth, w.Truth)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// parentSnapshot encodes s as the commit before the window log wrote
// it: the Knowledge Base section, then a Data Store section carrying
// the window as a trace stream.
func parentSnapshot(s *Snapshot, window []byte) []byte {
	var buf bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = EncodeSnapshot(&buf, s)
	_ = writeSection(&buf, sectionDataStore, window)
	return buf.Bytes()
}

// windowTrace is frames as one trace stream: a Data Store section's
// payload, and a window-log batch's.
func windowTrace(t testing.TB, frames []*packet.Captured) []byte {
	t.Helper()
	store := datastore.New(len(frames))
	appendAll(t, store, frames)
	var buf bytes.Buffer
	if _, _, err := store.SnapshotTo(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWindowLogWritesWhatChanged: a compaction appends the frames that
// arrived since the last one — not the window — and a compaction or a
// Stop with no new frames appends nothing; the snapshot no longer grows
// with the window.
func TestWindowLogWritesWhatChanged(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	kb.Put("Multihop", "true")
	if got := fileSize(t, WindowLogPath(dir)); got != windowLogHeaderLen {
		t.Fatalf("a new node's window log is %d bytes, want the %d-byte header", got, windowLogHeaderLen)
	}
	frames := windowFrames(t, 0, 30)
	var sizes []int64
	for _, n := range []int{0, 20, 25, 25, 30} {
		appendAll(t, store, frames[int(store.Total()):n])
		if err := m.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		sizes = append(sizes, fileSize(t, WindowLogPath(dir)))
	}
	twenty, five := sizes[1]-sizes[0], sizes[2]-sizes[1]
	if sizes[0] != windowLogHeaderLen || twenty <= 0 || five <= 0 || five*2 >= twenty {
		t.Errorf("log sizes %v: want header only, then a 20-frame batch, then a 5-frame batch a quarter its size", sizes)
	}
	if sizes[3] != sizes[2] {
		t.Errorf("a compaction with no new frames grew the log %d -> %d bytes", sizes[2], sizes[3])
	}
	snapshot := fileSize(t, SnapshotPath(dir))
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if got := fileSize(t, WindowLogPath(dir)); got != sizes[4] {
		t.Errorf("Stop with no new frames grew the log %d -> %d bytes", sizes[4], got)
	}
	if got := fileSize(t, SnapshotPath(dir)); got != snapshot || got > 64 {
		t.Errorf("snapshot is %d bytes (%d before Stop): it should hold one knowgget and no window", got, snapshot)
	}

	m2, _, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	sameWindow(t, store2, frames)
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestWindowLogRewrites: the log is rewritten from the in-memory window
// once it holds two windows' worth, so it never grows without bound,
// and a window restored across several rewrites is the window the node
// held — Store.Recent(0), frame for frame.
func TestWindowLogRewrites(t *testing.T) {
	dir := t.TempDir()
	m, _, store := openManager(t, dir, Metrics{})
	frames := windowFrames(t, 0, 7*windowCapacity+11)
	rewrites, logged := 0, 0
	for at := 0; at < len(frames); {
		n := min(23, len(frames)-at)
		appendAll(t, store, frames[at:at+n])
		at += n
		if err := m.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if m.winRecords < logged {
			rewrites++
		}
		logged = m.winRecords
		if logged >= 2*windowCapacity {
			t.Fatalf("log holds %d records after a compaction: not rewritten at %d", logged, 2*windowCapacity)
		}
	}
	if rewrites < 3 {
		t.Fatalf("%d rewrites over %d frames, want at least 3", rewrites, len(frames))
	}
	if _, err := os.Stat(WindowLogPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a finished rewrite left its temp file: %v", err)
	}
	want := store.Recent(0)
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	m2, _, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if _, _, n := m2.Recovered(); n != windowCapacity {
		t.Errorf("recovered %d window records, want the capacity, %d", n, windowCapacity)
	}
	sameWindow(t, store2, want)
	sameWindow(t, store2, frames[len(frames)-windowCapacity:])
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestTornWindowLogTruncates: a power cut during a compaction's append
// loses the batch being written and nothing else — outcome truncated,
// the Knowledge Base intact, the window the log's verified prefix — and
// the torn tail is cut off, so later batches land on a clean boundary.
func TestTornWindowLogTruncates(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	frames := windowFrames(t, 0, 30)
	kb.Put("A", "1")
	appendAll(t, store, frames[:20])
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	prefix := fileSize(t, WindowLogPath(dir))
	kb.Put("B", "2")
	appendAll(t, store, frames[20:])
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := TearWindowLog(dir, 3); err != nil { // chop the second batch mid-checksum
		t.Fatalf("TearWindowLog: %v", err)
	}

	m2, kb2, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeTruncated {
		t.Fatalf("outcome = %s, want truncated", m2.Outcome())
	}
	for label, want := range map[string]string{"A": "1", "B": "2"} {
		if v, ok := kb2.Value(label); !ok || v != want {
			t.Errorf("%s = (%q,%v): the Knowledge Base must not depend on the window log", label, v, ok)
		}
	}
	sameWindow(t, store2, frames[:20])
	if got := fileSize(t, WindowLogPath(dir)); got != prefix {
		t.Errorf("torn log is %d bytes after recovery, want the verified prefix, %d", got, prefix)
	}
	// Frames logged after the truncation must be readable behind it.
	appendAll(t, store2, frames[20:])
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	m3, _, store3 := openManager(t, dir, Metrics{})
	if m3.Outcome() != OutcomeWarm {
		t.Errorf("post-truncation restart = %s, want warm", m3.Outcome())
	}
	sameWindow(t, store3, frames)
	if err := m3.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestCrashInsideCompaction stops a checkpoint after each of its
// durable steps — log appended but snapshot not yet renamed; snapshot
// renamed but journal not yet rotated — and a sync point after its one:
// log fsynced, journal not yet, so the power cut takes the journal's
// unsynced records. It restarts from what is on disk: warm every time,
// every knowgget a step made durable there, and every frame in the
// window exactly once.
func TestCrashInsideCompaction(t *testing.T) {
	steps := map[string]struct {
		partial func(*Manager) error
		want    map[string]string // the Knowledge Base after the restart
	}{
		"log ahead of snapshot": {
			func(m *Manager) error { return m.logWindow(m.store.Kept()) },
			map[string]string{"K1$B": "2"},
		},
		"snapshot ahead of rotation": {
			func(m *Manager) error {
				if err := m.logWindow(m.store.Kept()); err != nil {
					return err
				}
				return m.writeSnapshotLocked()
			},
			map[string]string{"K1$B": "2"},
		},
		"log fsynced, journal not yet": {
			func(m *Manager) error {
				if err := m.logWindow(m.store.Kept()); err != nil {
					return err
				}
				return os.Truncate(JournalPath(m.dir), m.journal.synced)
			},
			map[string]string{"K1$A": "1"}, // as of the last fsync: a window ahead of the knowledge
		},
	}
	for name, step := range steps {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m, kb, store := openManager(t, dir, Metrics{})
			frames := windowFrames(t, 0, 30)
			kb.Put("A", "1")
			appendAll(t, store, frames[:20])
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			kb.Put("B", "2")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())
			appendAll(t, store, frames[20:])
			m.mu.Lock()
			err := step.partial(m)
			m.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			// Crash: the manager is abandoned where it stands.

			m2, kb2, store2 := openManager(t, dir, Metrics{})
			if m2.Outcome() != OutcomeWarm {
				t.Fatalf("outcome = %s, want warm", m2.Outcome())
			}
			if got := kbMap(kb2); !maps.Equal(got, step.want) {
				t.Errorf("recovered %v, want %v", got, step.want)
			}
			sameWindow(t, store2, frames)
			if err := m2.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

// TestCrashInsideRewrite: a crash mid-rewrite leaves the rewrite's temp
// file beside the log it was to replace. The log is whole and is used;
// the temp file is ignored and removed.
func TestCrashInsideRewrite(t *testing.T) {
	dir := t.TempDir()
	m, _, store := openManager(t, dir, Metrics{})
	frames := windowFrames(t, 0, 20)
	appendAll(t, store, frames)
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	tmp := WindowLogPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, []byte("KWIN\x01half a batch"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, _, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	sameWindow(t, store2, frames)
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("leftover %s not removed: %v", tmp, err)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestBadWindowLogHeader: a window log whose header does not verify is
// archived for post-mortem and the node restarts with an empty window —
// and its knowledge, which never depended on it.
func TestBadWindowLogHeader(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	appendAll(t, store, windowFrames(t, 0, 20))
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(WindowLogPath(dir), []byte("XXXX\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, kb2, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeTruncated {
		t.Fatalf("outcome = %s, want truncated", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("A = (%q,%v): knowledge lost with the window log", v, ok)
	}
	if store2.Len() != 0 {
		t.Errorf("window holds %d frames out of an unreadable log", store2.Len())
	}
	if _, err := os.Stat(WindowLogPath(dir) + ".corrupt"); err != nil {
		t.Error("unreadable window log not archived for post-mortem")
	}
	if got := fileSize(t, WindowLogPath(dir)); got != windowLogHeaderLen {
		t.Errorf("fresh window log is %d bytes, want the header", got)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestParentFormatStateDir: a state dir written before the window log —
// the window inside the snapshot, no window.kwin — restarts warm with
// that window; the restart moves the window into a log and the snapshot
// stops carrying it. With a log beside such a snapshot, the log's frames
// are the newer ones: the window is the section's frames then the
// log's, capped at capacity.
func TestParentFormatStateDir(t *testing.T) {
	kbSection := &Snapshot{Knowggets: []knowledge.Knowgget{{Creator: "K1", Label: "A", Value: "1"}}}
	frames := windowFrames(t, 0, 50+windowCapacity)

	t.Run("section only", func(t *testing.T) {
		dir := t.TempDir()
		old := parentSnapshot(kbSection, windowTrace(t, frames[:50]))
		if err := os.WriteFile(SnapshotPath(dir), old, 0o644); err != nil {
			t.Fatal(err)
		}
		m, kb, store := openManager(t, dir, Metrics{})
		if m.Outcome() != OutcomeWarm {
			t.Fatalf("outcome = %s, want warm", m.Outcome())
		}
		if v, ok := kb.Value("A"); !ok || v != "1" {
			t.Errorf("A = (%q,%v)", v, ok)
		}
		sameWindow(t, store, frames[:50])
		// Crash straight away: the window must already be in the log,
		// because the snapshot no longer holds it.
		if snap, err := loadSnapshotFile(SnapshotPath(dir)); err != nil || len(snap.WindowTrace) != 0 {
			t.Fatalf("post-recovery snapshot still carries a %d-byte window (err %v)", len(snap.WindowTrace), err)
		}
		m2, _, store2 := openManager(t, dir, Metrics{})
		if m2.Outcome() != OutcomeWarm {
			t.Fatalf("second outcome = %s, want warm", m2.Outcome())
		}
		sameWindow(t, store2, frames[:50])
		if err := m2.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
	})

	t.Run("section and log", func(t *testing.T) {
		dir := t.TempDir()
		old := parentSnapshot(kbSection, windowTrace(t, frames[:50]))
		if err := os.WriteFile(SnapshotPath(dir), old, 0o644); err != nil {
			t.Fatal(err)
		}
		log := windowLogHeader()
		log = appendFrame(log, windowTrace(t, frames[50:70]))
		log = appendFrame(log, windowTrace(t, frames[70:]))
		if err := os.WriteFile(WindowLogPath(dir), log, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, store := openManager(t, dir, Metrics{})
		if m.Outcome() != OutcomeWarm {
			t.Fatalf("outcome = %s, want warm", m.Outcome())
		}
		sameWindow(t, store, frames[len(frames)-windowCapacity:])
		if err := m.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		m2, _, store2 := openManager(t, dir, Metrics{})
		sameWindow(t, store2, frames[len(frames)-windowCapacity:])
		if err := m2.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
	})
}

// TestCrashInsideMigration: the restart that moves a parent-format
// snapshot's window into the log crashes after the log's rename and
// before the snapshot's, so the old snapshot still carries the frames
// the log now holds. The next restart must not restore them twice.
func TestCrashInsideMigration(t *testing.T) {
	dir := t.TempDir()
	frames := windowFrames(t, 0, 50) // fewer than the capacity: a repeat would fit
	old := parentSnapshot(&Snapshot{Knowggets: []knowledge.Knowgget{{Creator: "K1", Label: "A", Value: "1"}}},
		windowTrace(t, frames))
	if err := os.WriteFile(SnapshotPath(dir), old, 0o644); err != nil {
		t.Fatal(err)
	}
	m, _, store := openManager(t, dir, Metrics{})
	sameWindow(t, store, frames)
	_ = m // crash; and the snapshot's rename never happened:
	if err := os.WriteFile(SnapshotPath(dir), old, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, kb2, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("A = (%q,%v)", v, ok)
	}
	sameWindow(t, store2, frames)
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestWindowLogReplayProperties pins replay edge cases directly.
func TestWindowLogReplayProperties(t *testing.T) {
	header := windowLogHeader()
	batch := windowTrace(t, windowFrames(t, 0, 3))
	good := appendFrame(append([]byte{}, header...), batch)

	recs, n, torn, err := replayWindowLog(bytes.NewReader(header))
	if err != nil || torn || len(recs) != 0 || n != windowLogHeaderLen {
		t.Errorf("empty log: %v %v %d %d", err, torn, len(recs), n)
	}
	if _, _, _, err := replayWindowLog(bytes.NewReader(header[:3])); !errors.Is(err, ErrWindowLogHeader) {
		t.Errorf("short header err = %v", err)
	}
	recs, n, torn, err = replayWindowLog(bytes.NewReader(good))
	if err != nil || torn || len(recs) != 3 || n != int64(len(good)) {
		t.Errorf("one batch: %v %v %d %d/%d", err, torn, len(recs), n, len(good))
	}
	// A tail cut anywhere inside the second batch — in its length, body
	// or checksum — keeps the first batch whole and nothing of the second.
	two := appendFrame(append([]byte{}, good...), batch)
	for cut := len(good) + 1; cut < len(two); cut++ {
		recs, n, torn, err = replayWindowLog(bytes.NewReader(two[:cut]))
		if err != nil || !torn || len(recs) != 3 || n != int64(len(good)) {
			t.Fatalf("cut at %d of %d: %v torn=%v %d records, %d good bytes", cut, len(two), err, torn, len(recs), n)
		}
	}
	// A batch whose checksum verifies but whose trace stream does not
	// parse is no batch: never half of its records.
	bad := appendFrame(append([]byte{}, good...), batch[:len(batch)-2])
	recs, n, torn, err = replayWindowLog(bytes.NewReader(bad))
	if err != nil || !torn || len(recs) != 3 || n != int64(len(good)) {
		t.Errorf("unparseable batch: %v torn=%v %d records, %d good bytes", err, torn, len(recs), n)
	}
}

// TestSyncPointAllocs: a sync point hands off to a writer that lives
// from Open to Stop, which copies the Data Store's record bytes into the
// one chunk buffer the manager keeps and appends them to the log it
// holds open, so once that buffer has grown it allocates nothing —
// neither on the capture goroutine nor on the writer, whether ten
// frames arrived in the interval or a thousand. Re-encoding every frame
// into a fresh slice, a fresh batch buffer and a fresh file per sync
// point grew with the frames; copying the window's frame pointers out
// before encoding them cost one allocation; a goroutine or a closure
// per sync point would cost one.
func TestSyncPointAllocs(t *testing.T) {
	frames := windowFrames(t, 0, 1000)
	perSync := func(fresh int) uint64 {
		store := datastore.New(4096) // no rewrite within the runs below
		m, err := Open(Config{Dir: t.TempDir(), Interval: time.Second}, knowledge.NewBase("K1"), store)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := m.Stop(); err != nil {
				t.Error(err)
			}
		}()
		now := time.Unix(1500000000, 0)
		m.Tick(now)
		// syncPoint appends fresh frames, which may grow the store's
		// ring, and counts what the sync point after them allocates,
		// waiting for the writer to finish it.
		syncPoint := func() uint64 {
			appendAll(t, store, frames[:fresh])
			now = now.Add(time.Second)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.Tick(now)
			err := m.Err()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.Mallocs - before.Mallocs
		}
		syncPoint() // warm: the buffers grow to a batch
		const runs = 4
		var allocs uint64
		for range runs {
			allocs += syncPoint()
		}
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if want := uint64((runs + 1) * fresh); store.Kept() != want || m.winSeq != want {
			t.Fatalf("%d sync points of %d frames logged up to frame %d of %d", runs+1, fresh, m.winSeq, store.Kept())
		}
		return allocs / runs // as testing.AllocsPerRun averages, so a stray runtime allocation does not count
	}
	few, many := perSync(10), perSync(1000)
	if few != 0 || many != 0 {
		t.Errorf("a sync point allocates %d objects for 10 fresh frames and %d for 1 000, want none", few, many)
	}
}

// TestRewriteBytes: a window-log rewrite copies the window to the temp
// file through the manager's one chunk buffer, a chunk of at most
// winChunk records to a frame, so once a rewrite has been made it
// allocates less than one chunk, whatever the window size — and the
// file it leaves is the header and frames whose payloads, in order, are
// the window's records. Gathering the whole window into one buffer
// first cost about the window's size again on every rewrite (1.3 x it,
// sized from the previous rewrite; 3.5 x, grown by doubling).
func TestRewriteBytes(t *testing.T) {
	for _, window := range []int{2000, 8000} {
		dir := t.TempDir()
		store := datastore.New(window)
		m, err := Open(Config{Dir: dir, Interval: time.Second}, knowledge.NewBase("K1"), store)
		if err != nil {
			t.Fatal(err)
		}
		rewrite := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.mu.Lock()
			err := m.rewriteWindow(m.store.Kept())
			m.mu.Unlock()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		appendAll(t, store, windowFrames(t, 0, window))
		rewrite() // warm: the first rewrite of a window
		appendAll(t, store, windowFrames(t, window, window))
		allocated := rewrite()

		got, err := os.ReadFile(WindowLogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := store.Recent(0)
		var chunk, frames int // the largest frame's payload, and how many
		br := bufio.NewReader(bytes.NewReader(got[windowLogHeaderLen:]))
		for {
			payload, _, err := readFrame(br, maxSectionLen)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("window %d: frame %d: %v", window, frames, err)
			}
			recs, err := trace.ReadAll(bytes.NewReader(payload))
			if err != nil || len(recs) == 0 || len(recs) > winChunk {
				t.Fatalf("window %d: frame %d holds %d records (err %v), want 1 to %d", window, frames, len(recs), err, winChunk)
			}
			chunk, frames = max(chunk, len(payload)), frames+1
		}
		if !bytes.Equal(got[:windowLogHeaderLen], windowLogHeader()) || frames != (window+winChunk-1)/winChunk {
			t.Errorf("window %d: the rewritten log is %d frames behind its header, want %d chunks", window, frames, (window+winChunk-1)/winChunk)
		}
		logged, _, torn, err := replayWindowLog(bytes.NewReader(got))
		if err != nil || torn || len(logged) != len(want) {
			t.Fatalf("window %d: the rewritten log replays %d records (torn %v, err %v), want the window's %d", window, len(logged), torn, err, len(want))
		}
		for i, rec := range logged {
			c, err := rec.Decode()
			if err != nil || !c.Time.Equal(want[i].Time) || c.RSSI != want[i].RSSI {
				t.Fatalf("window %d: logged record %d is not the window's (err %v)", window, i, err)
			}
		}
		if allocated > uint64(chunk) {
			t.Errorf("rewriting a %d-frame window allocates %d bytes, want at most one chunk (%d bytes)", window, allocated, chunk)
		}
		t.Logf("a rewrite of a %d-frame window (%d bytes) allocates %d bytes; a chunk is %d bytes", window, len(got), allocated, chunk)
		if err := m.Stop(); err != nil {
			t.Error(err)
		}
	}
}
