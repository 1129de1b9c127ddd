package persist

import (
	"bufio"
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

// State dirs of older commits also held the Data Store window: as
// window frames in the log (op opWindow, then a trace stream of at most
// 256 records), as a second snapshot section (a trace stream), and, in
// older ones still, in a window.kwin of its own (header "KWIN\x01", then
// a frame per batch, each payload a trace stream). The helpers below
// write those formats; Open reads such a dir and never the window in it.

// windowTrace is n distinct CTP data frames numbered from from as one
// trace stream, each with its own capture time, RSSI and payload.
func windowTrace(t testing.TB, from, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := from; i < from+n; i++ {
		rec := &trace.Record{
			Time:   time.Unix(1500000000, 0).UTC().Add(time.Duration(i) * 200 * time.Millisecond),
			Medium: packet.MediumIEEE802154,
			RSSI:   -60 - float64(i%17)/4,
			Raw:    stack.BuildCTPData(uint16(2+i%5), 1, uint16(10+i%7), uint8(i), 1, 20, []byte{byte(i >> 8), byte(i)}),
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// windowChunk is n frames numbered from from as the log frame of one
// window chunk.
func windowChunk(t testing.TB, from, n int) []byte {
	t.Helper()
	return appendFrame(nil, append([]byte{opWindow}, windowTrace(t, from, n)...))
}

// putRecord and deleteRecord are KB records as log frames.
func putRecord(k knowledge.Knowgget) []byte {
	return appendFrame(nil, append([]byte{knowledge.OpPut}, appendKnowgget(nil, k)...))
}

func deleteRecord(key string) []byte {
	return appendFrame(nil, append([]byte{knowledge.OpDelete}, appendString(nil, key)...))
}

// parentSnapshot encodes s with a Data Store section behind its KB
// section, carrying window as its payload.
func parentSnapshot(s *Snapshot, window []byte) []byte {
	var buf bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = EncodeSnapshot(&buf, s)
	_ = writeSection(&buf, sectionDataStore, window)
	return buf.Bytes()
}

// parentWindowLog is a window.kwin holding a batch of frames per count.
func parentWindowLog(t testing.TB, counts ...int) []byte {
	t.Helper()
	log, from := []byte("KWIN\x01"), 0
	for _, n := range counts {
		log = appendFrame(log, windowTrace(t, from, n))
		from += n
	}
	return log
}

// WriteParentStateDir writes into dir a state dir in the formats older
// commits wrote, every window copy at once: a snapshot of the KB
// {K1$A: 1, K1$Mobility: false (static)} with a window section; with
// withLog also a log of KB records and window chunks — put B, a chunk,
// delete A, a chunk, put C — and a window.kwin. The KB it holds is the
// one WantParentKB returns for withLog.
func WriteParentStateDir(t testing.TB, dir string, withLog bool) {
	t.Helper()
	snap := &Snapshot{
		Knowggets:    []knowledge.Knowgget{{Creator: "K1", Label: "A", Value: "1"}, {Creator: "K1", Label: "Mobility", Value: "false"}},
		StaticLabels: []string{"Mobility"},
	}
	write := func(path string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(SnapshotPath(dir), parentSnapshot(snap, windowTrace(t, 0, 50)))
	if !withLog {
		return
	}
	log := append([]byte{}, logHeader...)
	for _, frame := range [][]byte{
		putRecord(knowledge.Knowgget{Creator: "K1", Label: "B", Value: "2"}),
		windowChunk(t, 50, 20),
		deleteRecord(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key()),
		windowChunk(t, 70, 30),
		putRecord(knowledge.Knowgget{Creator: "K1", Label: "C", Value: "3", Collective: true, Version: 4}),
	} {
		log = append(log, frame...)
	}
	write(JournalPath(dir), log)
	write(filepath.Join(dir, "window.kwin"), parentWindowLog(t, 20, 30))
}

// WantParentKB is the Knowledge Base, key to value, that a state dir of
// WriteParentStateDir holds.
func WantParentKB(withLog bool) map[string]string {
	if !withLog {
		return map[string]string{"K1$A": "1", "K1$Mobility": "false"}
	}
	return map[string]string{"K1$B": "2", "K1$C": "3", "K1$Mobility": "false"}
}

// LogOps lists the op byte of every frame in the verified prefix of the
// log in dir, window frames included.
func LogOps(t testing.TB, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return logOps(t, raw)
}

// logOps is LogOps of a log's bytes.
func logOps(t testing.TB, raw []byte) []byte {
	t.Helper()
	if !bytes.HasPrefix(raw, logHeader) {
		t.Fatalf("log header % x", raw[:min(len(raw), journalHeaderLen)])
	}
	var ops []byte
	br := bufio.NewReader(bytes.NewReader(raw[journalHeaderLen:]))
	for {
		payload, _, err := readFrame(br, maxFrame)
		if err != nil {
			return ops // a clean end, or the zero tail of a mapped log
		}
		ops = append(ops, payload[0])
	}
}

// TestCrashInsideMigration crashes the first checkpoint of a state dir
// an older commit wrote — the one that drops its window chunks and
// snapshot section — at each of its steps: records appended behind the
// older log's frames and fsynced, the snapshot replaced but not the
// log, and the log's replacement fsynced as a temp file but not
// renamed. The next Open is warm with the knowledge the node held,
// never an older value of a key the older log also wrote, and its
// checkpoint leaves a log of KB records alone and a snapshot of its KB
// section alone; window.kwin is never touched.
func TestCrashInsideMigration(t *testing.T) {
	steps := map[string]func(*Manager) error{
		"log ahead of snapshot":      func(m *Manager) error { return m.journal.sync() },
		"snapshot ahead of rotation": func(m *Manager) error { return m.writeSnapshotLocked() },
		"log fsynced, journal not yet": func(m *Manager) error {
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
			return fsync(f)
		},
	}
	for name, partial := range steps {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			WriteParentStateDir(t, dir, true)
			kwin, err := os.ReadFile(filepath.Join(dir, "window.kwin"))
			if err != nil {
				t.Fatal(err)
			}
			m, kb := openManager(t, dir, Metrics{})
			if got, want := kbMap(kb), WantParentKB(true); m.Outcome() != OutcomeWarm || !maps.Equal(got, want) {
				t.Fatalf("first Open: %s with %v, want warm with %v", m.Outcome(), got, want)
			}
			// B changes and C goes: the older log's put of each must not
			// come back over them.
			kb.Put("B", "5")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "C"}.Key())
			m.mu.Lock()
			err = partial(m)
			m.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			// Crash: the manager is abandoned where it stands.

			want := map[string]string{"K1$B": "5", "K1$Mobility": "false"}
			m2, kb2 := openManager(t, dir, Metrics{})
			if got := kbMap(kb2); m2.Outcome() != OutcomeWarm || !maps.Equal(got, want) {
				t.Fatalf("Open after the crash: %s with %v, want warm with %v", m2.Outcome(), got, want)
			}
			if !kb2.IsStatic("Mobility") {
				t.Error("the static mark of Mobility is lost")
			}
			if _, err := os.Stat(JournalPath(dir) + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("leftover log temp file not removed: %v", err)
			}
			if err := m2.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
			wantKnowledgeOnly(t, dir)
			raw, err := os.ReadFile(SnapshotPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if snap, err := DecodeSnapshot(bytes.NewReader(raw)); err != nil || !bytes.Equal(EncodeSnapshotBytes(snap), raw) {
				t.Errorf("the snapshot after Stop is %d bytes, not its KB section alone (err %v)", len(raw), err)
			}
			if got, err := os.ReadFile(filepath.Join(dir, "window.kwin")); err != nil || !bytes.Equal(got, kwin) {
				t.Errorf("window.kwin changed (err %v)", err)
			}
			m3, kb3 := openManager(t, dir, Metrics{})
			if got := kbMap(kb3); m3.Outcome() != OutcomeWarm || !maps.Equal(got, want) {
				t.Errorf("Open after the checkpoint: %s with %v, want warm with %v", m3.Outcome(), got, want)
			}
			if err := m3.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

// TestTornWindowLogTruncates: a log of an older commit, torn inside its
// last window chunk, recovers truncated with every KB record in front
// of the tear, and the tear is cut off, so later records land on a
// clean boundary.
func TestTornWindowLogTruncates(t *testing.T) {
	dir := t.TempDir()
	log := append(append([]byte{}, logHeader...), putRecord(knowledge.Knowgget{Creator: "K1", Label: "A", Value: "1"})...)
	log = append(log, windowChunk(t, 0, 20)...)
	log = append(log, putRecord(knowledge.Knowgget{Creator: "K1", Label: "B", Value: "2"})...)
	prefix := int64(len(log))
	chunk := windowChunk(t, 20, 10)
	log = append(log, chunk[:len(chunk)-3]...) // cut mid-checksum
	if err := os.WriteFile(JournalPath(dir), log, 0o644); err != nil {
		t.Fatal(err)
	}

	m, kb := openManager(t, dir, Metrics{})
	if m.Outcome() != OutcomeTruncated {
		t.Fatalf("outcome = %s, want truncated", m.Outcome())
	}
	if got := kbMap(kb); len(got) != 2 || got["K1$A"] != "1" || got["K1$B"] != "2" {
		t.Errorf("recovered %v: a torn chunk cost a KB record written before it", got)
	}
	if got := fileSize(t, JournalPath(dir)); got != prefix {
		t.Errorf("torn log is %d bytes after recovery, want the verified prefix, %d", got, prefix)
	}
	kb.Put("C", "3")
	// Crash: the manager is abandoned where it stands.
	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm || len(kbMap(kb2)) != 3 {
		t.Errorf("post-truncation restart: %s with %v, want warm with A, B and C", m2.Outcome(), kbMap(kb2))
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestBadWindowLogHeader: a window.kwin is never opened, whatever it
// holds: a state dir with an unreadable one beside its snapshot opens
// warm with its knowledge, and the file is left as it is.
func TestBadWindowLogHeader(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	kwin := filepath.Join(dir, "window.kwin")
	if err := os.WriteFile(kwin, []byte("XXXX\x01garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("A = (%q,%v)", v, ok)
	}
	if data, err := os.ReadFile(kwin); err != nil || string(data) != "XXXX\x01garbage" {
		t.Errorf("window.kwin = %q (err %v): Open touched it", data, err)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestWindowLogReplayProperties pins how replay reads the window frames
// of older logs: a verified one is skipped unread, whatever its payload,
// and costs nothing of the KB records around it; a torn one ends the
// verified prefix like a torn KB record.
func TestWindowLogReplayProperties(t *testing.T) {
	putA := putRecord(knowledge.Knowgget{Creator: "K1", Label: "A", Value: "1"})
	putB := putRecord(knowledge.Knowgget{Creator: "K1", Label: "B", Value: "2"})
	chunk := windowChunk(t, 0, 3)
	junk := appendFrame(nil, []byte{opWindow, 'n', 'o', 't', ' ', 'a', ' ', 't', 'r', 'a', 'c', 'e'})
	good := bytes.Join([][]byte{logHeader, putA, chunk, junk, putB}, nil)

	log, err := replayJournal(good)
	if err != nil || log.torn || len(log.entries) != 2 || log.good != int64(len(good)) {
		t.Errorf("two KB records around two window frames: %v torn=%v %d entries, %d/%d good", err, log.torn, len(log.entries), log.good, len(good))
	}
	// A tail cut anywhere inside a last window frame keeps every KB
	// record in front of it.
	two := append(append([]byte{}, good...), chunk...)
	for cut := len(good) + 1; cut < len(two); cut++ {
		log, err = replayJournal(two[:cut])
		if err != nil || !log.torn || len(log.entries) != 2 || log.good != int64(len(good)) {
			t.Fatalf("cut at %d of %d: %v torn=%v %d entries, %d good bytes", cut, len(two), err, log.torn, len(log.entries), log.good)
		}
	}
	// A log as an older commit wrote it — a KB record, a sync point's
	// window chunk, two records, a chunk, a record — the one the fuzz
	// corpus holds too.
	corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzJournalReplay", "parent-log"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(string(corpus)), "go test fuzz v1\n[]byte("), ")")
	older, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	log, err = replayJournal([]byte(older))
	if err != nil || log.torn || len(log.entries) != 4 || log.good != int64(len(older)) || log.entries[2].Op != knowledge.OpDelete {
		t.Errorf("an older commit's log: %v torn=%v %d entries, %d/%d good", err, log.torn, len(log.entries), log.good, len(older))
	}
	if windows := bytes.Count(logOps(t, []byte(older)), []byte{opWindow}); windows != 2 {
		t.Errorf("the older commit's log holds %d window chunks, want the 2 its sync points wrote", windows)
	}
	// A window frame whose checksum fails is torn like any frame.
	bad := append([]byte{}, good...)
	bad[journalHeaderLen+len(putA)+5] ^= 0x10
	log, err = replayJournal(bad)
	if err != nil || !log.torn || len(log.entries) != 1 || log.good != int64(journalHeaderLen+len(putA)) {
		t.Errorf("flipped bit in a window frame: %v torn=%v %d entries, %d good bytes", err, log.torn, len(log.entries), log.good)
	}
}
