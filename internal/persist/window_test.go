package persist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
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

// parentSnapshot encodes s as the commit before the window was logged
// wrote it: the Knowledge Base section, then a Data Store section
// carrying the window as a trace stream.
func parentSnapshot(s *Snapshot, window []byte) []byte {
	var buf bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = EncodeSnapshot(&buf, s)
	_ = writeSection(&buf, sectionDataStore, window)
	return buf.Bytes()
}

// parentWindowLog is the window.kwin a parent state dir kept its window
// in: its header, then a frame for each batch of frames, each payload a
// trace stream.
func parentWindowLog(t testing.TB, batches ...[]*packet.Captured) []byte {
	t.Helper()
	log := append([]byte{}, windowLogHeader...)
	for _, b := range batches {
		log = appendFrame(log, windowTrace(t, b))
	}
	return log
}

// windowTrace is frames as one trace stream: a Data Store section's
// payload, and a window chunk's after its op byte.
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

// windowChunk is frames as the log frame of one window chunk.
func windowChunk(t testing.TB, frames []*packet.Captured) []byte {
	t.Helper()
	return appendFrame(nil, append([]byte{opWindow}, windowTrace(t, frames)...))
}

// syncAt runs a sync point at capture time now and waits for it.
func syncAt(t *testing.T, m *Manager, now time.Time) {
	t.Helper()
	m.Tick(now)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
}

// wantTwoFiles checks that dir holds the snapshot and the log and
// nothing else.
func wantTwoFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"journal.kjnl", "snapshot.ksnp"}) {
		t.Errorf("state dir holds %v, want the log and the snapshot", names)
	}
}

// TestWindowLogWritesWhatChanged: a sync point appends to the log the
// frames that arrived since the last one — a chunk a quarter the size
// for a quarter the frames, not the window — and one with no new frames
// appends nothing; Stop's checkpoint leaves the log as the window
// alone, and the snapshot no longer grows with the window.
func TestWindowLogWritesWhatChanged(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	kb.Put("Multihop", "true")
	if got := fileSize(t, JournalPath(dir)); got <= journalHeaderLen {
		t.Fatalf("a new node's log is %d bytes, want its header and the KB record", got)
	}
	frames := windowFrames(t, 0, 30)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	var sizes []int64
	for i, n := range []int{0, 20, 25, 25, 30} {
		appendAll(t, store, frames[int(store.Total()):n])
		syncAt(t, m, t0.Add(time.Duration(i+1)*11*time.Second))
		sizes = append(sizes, fileSize(t, JournalPath(dir)))
	}
	twenty, five := sizes[1]-sizes[0], sizes[2]-sizes[1]
	if twenty != int64(len(windowChunk(t, frames[:20]))) || five != int64(len(windowChunk(t, frames[20:25]))) || five*2 >= twenty {
		t.Errorf("log sizes %v: want the KB record, then a 20-frame chunk, then a 5-frame chunk a quarter its size", sizes)
	}
	if sizes[3] != sizes[2] {
		t.Errorf("a sync point with no new frames grew the log %d -> %d bytes", sizes[2], sizes[3])
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantTwoFiles(t, dir)
	if got, want := fileSize(t, JournalPath(dir)), int64(journalHeaderLen+len(windowChunk(t, frames))); got != want {
		t.Errorf("after Stop the log is %d bytes, want the header and one 30-frame chunk: %d", got, want)
	}
	if got := fileSize(t, SnapshotPath(dir)); got > 64 {
		t.Errorf("snapshot is %d bytes: it should hold one knowgget and no window", got)
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

// TestWindowLogRewrites: a checkpoint rewrites the log as the in-memory
// window once it has grown rotateBytes, so it never holds more than a
// window and rotateBytes (and the interval in flight), and a window
// restored across several rewrites is the window the node held —
// Store.Recent(0), frame for frame.
func TestWindowLogRewrites(t *testing.T) {
	dir := t.TempDir()
	met := syncMetrics()
	m, _, store := openManager(t, dir, met)
	const interval = windowCapacity - 14 // every frame is still in the window at its sync point
	window := len(windowChunk(t, windowFrames(t, 0, windowCapacity)))
	frames := windowFrames(t, 0, 4*rotateBytes/window*windowCapacity+11)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	rewrites, logged := 0, m.JournalBytes()
	bound := journalHeaderLen + int64(window) + rotateBytes + int64(len(windowChunk(t, frames[:interval])))
	for at, i := 0, 1; at < len(frames); i++ {
		n := min(interval, len(frames)-at)
		appendAll(t, store, frames[at:at+n])
		at += n
		syncAt(t, m, t0.Add(time.Duration(i)*11*time.Second))
		if m.JournalBytes() < logged {
			rewrites++
		}
		logged = m.JournalBytes()
		if logged > bound {
			t.Fatalf("log holds %d bytes after a sync point: not rewritten at %d", logged, bound)
		}
	}
	if rewrites < 3 || met.Snapshots.Value() != uint64(rewrites) {
		t.Fatalf("%d rewrites and %d checkpoints over %d frames, want at least 3, one each", rewrites, met.Snapshots.Value(), len(frames))
	}
	if _, err := os.Stat(JournalPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
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

// TestTornWindowLogTruncates: a power cut during a sync point's append
// loses the chunk being written and nothing else — outcome truncated,
// every KB record written before the chunk intact, the window the log's
// verified prefix — and the torn tail is cut off, so later frames land
// on a clean boundary.
func TestTornWindowLogTruncates(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	frames := windowFrames(t, 0, 30)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	kb.Put("A", "1")
	appendAll(t, store, frames[:20])
	syncAt(t, m, t0.Add(11*time.Second))
	kb.Put("B", "2")
	prefix := fileSize(t, JournalPath(dir))
	appendAll(t, store, frames[20:])
	syncAt(t, m, t0.Add(22*time.Second))
	if err := Tear(dir, 3); err != nil { // chop the second chunk mid-checksum
		t.Fatalf("Tear: %v", err)
	}

	m2, kb2, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeTruncated {
		t.Fatalf("outcome = %s, want truncated", m2.Outcome())
	}
	for label, want := range map[string]string{"A": "1", "B": "2"} {
		if v, ok := kb2.Value(label); !ok || v != want {
			t.Errorf("%s = (%q,%v): a torn chunk cost a KB record written before it", label, v, ok)
		}
	}
	sameWindow(t, store2, frames[:20])
	if got := fileSize(t, JournalPath(dir)); got != prefix {
		t.Errorf("torn log is %d bytes after recovery, want the verified prefix, %d", got, prefix)
	}
	// Frames logged after the truncation must be readable behind it.
	appendAll(t, store2, frames[20:])
	m2.Tick(t0)
	syncAt(t, m2, t0.Add(11*time.Second))
	// Crash: the manager is abandoned where it stands.
	m3, kb3, store3 := openManager(t, dir, Metrics{})
	if m3.Outcome() != OutcomeWarm {
		t.Errorf("post-truncation restart = %s, want warm", m3.Outcome())
	}
	if got := kbMap(kb3); len(got) != 2 {
		t.Errorf("post-truncation restart recovered %v", got)
	}
	sameWindow(t, store3, frames)
	if err := m3.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestCrashInsideCompaction stops a checkpoint after each of its steps
// — the log's fresh chunks appended but nothing more; the snapshot
// renamed but the log not yet replaced; the log's replacement fsynced
// as a temp file but not renamed — and restarts from what is on disk:
// warm every time, every knowgget, and every frame in the window
// exactly once: all of them when the log got them, the window the last
// sync point logged when the checkpoint had not yet replaced the log.
func TestCrashInsideCompaction(t *testing.T) {
	steps := map[string]struct {
		partial func(*Manager) error
		frames  int // the window after the restart
	}{
		"log ahead of snapshot": {
			func(m *Manager) error {
				_, _, err := m.copyWindow(m.journal.f, m.winSeq, m.store.Kept())
				return err
			},
			30,
		},
		"snapshot ahead of rotation": {
			func(m *Manager) error { return m.writeSnapshotLocked() },
			20,
		},
		"log fsynced, journal not yet": {
			func(m *Manager) error {
				if err := m.writeSnapshotLocked(); err != nil {
					return err
				}
				f, err := os.Create(JournalPath(m.dir) + ".tmp")
				if err != nil {
					return err
				}
				defer f.Close()
				if _, err := f.Write(logHeader); err != nil {
					return err
				}
				if _, _, err := m.copyWindow(f, 0, m.store.Kept()); err != nil {
					return err
				}
				return fsync(f)
			},
			20,
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
			if got, want := kbMap(kb2), map[string]string{"K1$B": "2"}; !maps.Equal(got, want) {
				t.Errorf("recovered %v, want %v", got, want)
			}
			sameWindow(t, store2, frames[:step.frames])
			wantTwoFiles(t, dir)
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
	tmp := JournalPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, []byte("KJNL\x01half a chunk"), 0o644); err != nil {
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

// TestBadWindowLogHeader: a parent state dir whose window.kwin header
// does not verify has that file archived for post-mortem, and the node
// restarts with an empty window — and its knowledge, which never
// depended on it — from a state dir of two files.
func TestBadWindowLogHeader(t *testing.T) {
	dir := t.TempDir()
	m, kb, _ := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(windowLogPath(dir), []byte("XXXX\x01garbage"), 0o644); err != nil {
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
	if _, err := os.Stat(windowLogPath(dir) + ".corrupt"); err != nil {
		t.Error("unreadable window log not archived for post-mortem")
	}
	if err := os.Remove(windowLogPath(dir) + ".corrupt"); err != nil {
		t.Fatal(err)
	}
	wantTwoFiles(t, dir)
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestParentFormatStateDir: a state dir written before the window was
// logged — the window inside the snapshot, no window.kwin — restarts
// warm with that window; the restart moves the window into the log and
// the snapshot stops carrying it. With a window.kwin beside such a
// snapshot, its frames are the newer ones: the window is the section's
// frames then the window log's, capped at capacity. Either way the
// restart leaves two files.
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
		wantTwoFiles(t, dir)
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
		if err := os.WriteFile(windowLogPath(dir), parentWindowLog(t, frames[50:70], frames[70:]), 0o644); err != nil {
			t.Fatal(err)
		}
		m, kb, store := openManager(t, dir, Metrics{})
		if m.Outcome() != OutcomeWarm {
			t.Fatalf("outcome = %s, want warm", m.Outcome())
		}
		if v, ok := kb.Value("A"); !ok || v != "1" {
			t.Errorf("A = (%q,%v)", v, ok)
		}
		sameWindow(t, store, frames[len(frames)-windowCapacity:])
		wantTwoFiles(t, dir)
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

// TestCrashInsideMigration crashes the restarts that move a parent state
// dir's window into the log. One moved a parent-format snapshot's window
// and crashed before the snapshot's rename, so the old snapshot still
// carries the frames the log now holds. The other moved a parent's
// window.kwin — behind a journal of KB records — and crashed after the
// log's rename, before the file was removed. Neither next restart may
// restore a frame twice or lose knowledge.
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

	// A parent's window.kwin beside a journal of KB records; the crash
	// comes after the window went into the log, before window.kwin went.
	dir = t.TempDir()
	mj, kbj, _ := openManager(t, dir, Metrics{})
	kbj.Put("A", "1")
	if err := mj.Compact(); err != nil {
		t.Fatal(err)
	}
	kbj.Put("B", "2")
	kbj.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())
	// Crash: the snapshot holds A, the journal B and the delete of A.
	kwin := parentWindowLog(t, frames[:30], frames[30:])
	if err := os.WriteFile(windowLogPath(dir), kwin, 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"K1$B": "2"}
	m3, kb3, store3 := openManager(t, dir, Metrics{})
	if got := kbMap(kb3); m3.Outcome() != OutcomeWarm || !maps.Equal(got, want) {
		t.Fatalf("migrating restart: %s with %v, want warm with %v", m3.Outcome(), got, want)
	}
	sameWindow(t, store3, frames)
	if log, err := replayJournalFile(t, JournalPath(dir)); err != nil || len(log.entries) != 2 || len(log.window) != len(frames) {
		t.Fatalf("the migrated log holds %d KB records and %d window records (err %v), want the journal's 2 and the window's %d",
			len(log.entries), len(log.window), err, len(frames))
	}
	_ = m3 // crash; and window.kwin was never removed:
	if err := os.WriteFile(windowLogPath(dir), kwin, 0o644); err != nil {
		t.Fatal(err)
	}
	m4, kb4, store4 := openManager(t, dir, Metrics{})
	if got := kbMap(kb4); m4.Outcome() != OutcomeWarm || !maps.Equal(got, want) {
		t.Fatalf("restart after the crash: %s with %v, want warm with %v", m4.Outcome(), got, want)
	}
	sameWindow(t, store4, frames)
	wantTwoFiles(t, dir)
	if err := m4.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestWindowLogReplayProperties pins the replay of window chunks in the
// log directly, and of the parent's window.kwin.
func TestWindowLogReplayProperties(t *testing.T) {
	put := appendFrame(append([]byte{}, logHeader...), append([]byte{knowledge.OpPut}, appendKnowgget(nil, knowledge.Knowgget{Creator: "K1", Label: "A", Value: "1"})...))
	chunk := windowChunk(t, windowFrames(t, 0, 3))
	good := append(append([]byte{}, put...), chunk...)

	log, err := replayJournal(bytes.NewReader(good))
	if err != nil || log.torn || len(log.entries) != 1 || len(log.window) != 3 || log.good != int64(len(good)) || log.windowBytes != int64(len(chunk)) {
		t.Errorf("a KB record and a chunk: %v torn=%v %d entries, %d records in %d bytes, %d/%d good", err, log.torn, len(log.entries), len(log.window), log.windowBytes, log.good, len(good))
	}
	// A tail cut anywhere inside a second chunk — in its length, body or
	// checksum — keeps the KB record and the first chunk whole and
	// nothing of the second.
	two := append(append([]byte{}, good...), chunk...)
	for cut := len(good) + 1; cut < len(two); cut++ {
		log, err = replayJournal(bytes.NewReader(two[:cut]))
		if err != nil || !log.torn || len(log.entries) != 1 || len(log.window) != 3 || log.good != int64(len(good)) {
			t.Fatalf("cut at %d of %d: %v torn=%v %d entries, %d records, %d good bytes", cut, len(two), err, log.torn, len(log.entries), len(log.window), log.good)
		}
	}
	// A chunk whose checksum verifies but whose trace stream does not
	// parse is no chunk: never half of its records.
	batch := windowTrace(t, windowFrames(t, 0, 3))
	bad := appendFrame(append([]byte{}, good...), append([]byte{opWindow}, batch[:len(batch)-2]...))
	log, err = replayJournal(bytes.NewReader(bad))
	if err != nil || !log.torn || len(log.window) != 3 || log.good != int64(len(good)) {
		t.Errorf("unparseable chunk: %v torn=%v %d records, %d good bytes", err, log.torn, len(log.window), log.good)
	}

	// The parent's window.kwin: header only, a short header, a batch.
	recs, n, torn, err := replayWindowLog(bytes.NewReader(windowLogHeader))
	if err != nil || torn || len(recs) != 0 || n != int64(len(windowLogHeader)) {
		t.Errorf("empty window log: %v %v %d %d", err, torn, len(recs), n)
	}
	if _, _, _, err := replayWindowLog(bytes.NewReader(windowLogHeader[:3])); err == nil {
		t.Error("short window-log header accepted")
	}
	kwin := parentWindowLog(t, windowFrames(t, 0, 3))
	recs, n, torn, err = replayWindowLog(bytes.NewReader(kwin[:len(kwin)-1]))
	if err != nil || !torn || len(recs) != 0 || n != int64(len(windowLogHeader)) {
		t.Errorf("torn window-log batch: %v %v %d %d", err, torn, len(recs), n)
	}
}

// TestSyncPointAllocs: a sync point hands off to a writer that lives
// from Open to Stop, which copies the Data Store's record bytes into the
// one chunk buffer the manager keeps and appends them to the log it
// holds open, then fsyncs it, so once that buffer has grown it allocates nothing —
// neither on the capture goroutine nor on the writer, whether ten
// frames arrived in the interval or a thousand. Re-encoding every frame
// into a fresh slice, a fresh batch buffer and a fresh file per sync
// point grew with the frames; copying the window's frame pointers out
// before encoding them cost one allocation; a goroutine or a closure
// per sync point would cost one.
func TestSyncPointAllocs(t *testing.T) {
	frames := windowFrames(t, 0, 1000)
	perSync := func(fresh int) uint64 {
		store := datastore.New(4096) // no checkpoint within the runs below
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

// TestRewriteBytes: a checkpoint's log rewrite copies the window to the
// temp file through the manager's one chunk buffer, a chunk of at most
// winChunk records to a frame, so once a rewrite has been made it
// allocates less than one chunk, whatever the window size — and the
// file it leaves is the header and window chunks whose records, in
// order, are the window's. Gathering the whole window into one buffer
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
			err := m.writeLog(logHeader)
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

		got, err := os.ReadFile(JournalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := store.Recent(0)
		var chunk, frames int // the largest frame's payload, and how many
		br := bufio.NewReader(bytes.NewReader(got[journalHeaderLen:]))
		for {
			payload, _, err := readFrame(br, maxFrame)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("window %d: frame %d: %v", window, frames, err)
			}
			recs, err := trace.ReadAll(bytes.NewReader(payload[1:]))
			if payload[0] != opWindow || err != nil || len(recs) == 0 || len(recs) > winChunk {
				t.Fatalf("window %d: frame %d (op %d) holds %d records (err %v), want a chunk of 1 to %d", window, frames, payload[0], len(recs), err, winChunk)
			}
			chunk, frames = max(chunk, len(payload)), frames+1
		}
		if !bytes.Equal(got[:journalHeaderLen], logHeader) || frames != (window+winChunk-1)/winChunk {
			t.Errorf("window %d: the rewritten log is %d frames behind its header, want %d chunks", window, frames, (window+winChunk-1)/winChunk)
		}
		log, err := replayJournal(bytes.NewReader(got))
		if err != nil || log.torn || len(log.entries) != 0 || len(log.window) != len(want) {
			t.Fatalf("window %d: the rewritten log replays %d records (torn %v, err %v), want the window's %d", window, len(log.window), log.torn, err, len(want))
		}
		for i, rec := range log.window {
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

// TestLargestChunkReplaysWhole: the largest frame the writer produces —
// a chunk of one record of the largest size internal/trace reads back —
// is read under the log's one length cap, so it replays whole, and so
// does the KB record behind it; and a chunk whose records together
// would pass that cap is cut before it is written.
func TestLargestChunkReplaysWhole(t *testing.T) {
	dir := t.TempDir()
	kb, store := knowledge.NewBase("K1"), datastore.New(2)
	m, err := Open(Config{Dir: dir, Interval: time.Second}, kb, store)
	if err != nil {
		t.Fatal(err)
	}
	// One frame whose record body is the most a trace record may hold,
	// and one a little over half that: the two pass maxFrame together.
	payload := make([]byte, 1<<24)
	build := func(bodyLen int) *packet.Captured {
		n := bodyLen - 64
		for {
			rec := &trace.Record{Time: time.Unix(1500000000, 0).UTC(), Medium: packet.MediumIEEE802154, RSSI: -60,
				Raw: stack.BuildCTPData(5, 3, 5, 1, 0, 100, payload[:n])}
			body, err := trace.AppendBody(nil, rec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(body) != bodyLen {
				n -= len(body) - bodyLen
				continue
			}
			c, err := rec.Decode()
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	frames := []*packet.Captured{build(1<<23 + 1<<10), build(1 << 24)}
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	appendAll(t, store, frames)
	m.Tick(t0.Add(time.Second))
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	kb.Put("A", "1")
	// Crash: the manager is abandoned where it stands.

	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	var chunks, largest int
	br := bufio.NewReader(bytes.NewReader(raw[journalHeaderLen:]))
	for {
		payload, _, err := readFrame(br, maxFrame)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", chunks, err)
		}
		if payload[0] == opWindow {
			chunks, largest = chunks+1, max(largest, len(payload))
		}
	}
	if chunks != 2 || largest != maxFrame {
		t.Errorf("the sync point wrote %d chunks, the largest %d bytes: want the two records cut apart, one chunk of maxFrame (%d)", chunks, largest, maxFrame)
	}
	log, err := replayJournal(bytes.NewReader(raw))
	if err != nil || log.torn || len(log.entries) != 1 || len(log.window) != 2 {
		t.Fatalf("replay: %d KB records and %d window records (torn %v, err %v), want 1 and 2, whole", len(log.entries), len(log.window), log.torn, err)
	}
	for i, rec := range log.window {
		if want := frames[i].Layers[0].(trace.Frame).EncodedLen(); len(rec.Raw) != want {
			t.Errorf("window record %d: %d raw bytes, want %d", i, len(rec.Raw), want)
		}
	}
}
