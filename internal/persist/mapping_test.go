package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
)

// TestIdleStopWritesNothing: a warm Open followed at once by Stop
// leaves both state files as they were — same inode, bytes and mtime —
// and counts no checkpoint, because a checkpoint would write what is on
// disk already. Frames taken in with no sync point since, or a KB
// change, make Stop checkpoint again, and the next Open has them.
func TestIdleStopWritesNothing(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.PutStatic("Mobility", "", "false")
	frames := windowFrames(t, 0, 10)
	appendAll(t, store, frames[:5])
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	// Date both files back, so any write or truncation shows in the mtime.
	past := time.Unix(1500000000, 0)
	paths := []string{SnapshotPath(dir), JournalPath(dir)}
	type state struct {
		fi   os.FileInfo
		data []byte
	}
	read := func() []state {
		t.Helper()
		out := make([]state, len(paths))
		for i, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = state{fi, data}
		}
		return out
	}
	for _, p := range paths {
		if err := os.Chtimes(p, past, past); err != nil {
			t.Fatal(err)
		}
	}
	before := read()

	met := syncMetrics()
	m2, _, store2 := openManager(t, dir, met)
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for i, after := range read() {
		b := before[i]
		if !os.SameFile(b.fi, after.fi) || !after.fi.ModTime().Equal(b.fi.ModTime()) || !bytes.Equal(after.data, b.data) {
			t.Errorf("%s changed over an idle Open and Stop: %d bytes at %v -> %d bytes at %v (same inode: %v)",
				filepath.Base(paths[i]), len(b.data), b.fi.ModTime(), len(after.data), after.fi.ModTime(), os.SameFile(b.fi, after.fi))
		}
	}
	wantCounters(t, met, "an idle Open and Stop", 0, 0)
	sameWindow(t, store2, frames[:5])

	// Frames with no sync point since: Stop checkpoints them.
	met = syncMetrics()
	m3, _, store3 := openManager(t, dir, met)
	appendAll(t, store3, frames[5:])
	if err := m3.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantCounters(t, met, "frames and Stop", 0, 1)
	// A KB change: Stop checkpoints it.
	met = syncMetrics()
	m4, kb4, store4 := openManager(t, dir, met)
	sameWindow(t, store4, frames)
	kb4.Put("B", "2")
	if err := m4.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantCounters(t, met, "a KB change and Stop", 0, 1)
	m5, kb5, _ := openManager(t, dir, Metrics{})
	if got := kbMap(kb5); len(got) != 3 || got["K1$B"] != "2" {
		t.Errorf("recovered %v, want A, B and Mobility", got)
	}
	if err := m5.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// killChildDir names, in the environment of the child process
// TestRecordSurvivesProcessKill starts, the state dir it writes.
const killChildDir = "KALIS_PERSIST_TEST_KILL_DIR"

// killPuts is how many knowggets the child puts before it is killed.
const killPuts = 1000

// TestRecordSurvivesProcessKill: a KB record is in the log as soon as
// record returns, with no sync point and no Stop, so a process killed
// right after loses none of them. The test runs itself again as one
// child process, which opens a manager, puts killPuts knowggets, says
// ready and waits to be sent SIGKILL; reopening its state dir must
// restore every one, warm.
func TestRecordSurvivesProcessKill(t *testing.T) {
	if dir := os.Getenv(killChildDir); dir != "" {
		kb := knowledge.NewBase("K1")
		if _, err := Open(Config{Dir: dir}, kb, datastore.New(windowCapacity)); err != nil {
			fmt.Println("open:", err)
			os.Exit(1)
		}
		for i := range killPuts {
			kb.PutEntity("SignalStrength", fmt.Sprintf("0x%04x", i), "-67")
		}
		fmt.Println("ready")
		time.Sleep(time.Minute) // the parent kills the process long before
		os.Exit(1)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecordSurvivesProcessKill$")
	cmd.Env = append(os.Environ(), killChildDir+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(out)
	ready := false
	for !ready && lines.Scan() {
		ready = lines.Text() == "ready"
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // killed: the error says so
	if !ready {
		t.Fatalf("the child never got ready (last line %q)", lines.Text())
	}

	m, kb, _ := openManager(t, dir, Metrics{})
	if m.Outcome() != OutcomeWarm {
		t.Errorf("outcome = %s, want warm", m.Outcome())
	}
	if got := kb.Len(); got != killPuts {
		t.Errorf("recovered %d knowggets, want the %d put before the kill", got, killPuts)
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestLogGrowsPastItsMapping: records and window chunks keep landing
// whole when the log outgrows its mapping and is remapped, more than
// once, and a crash after that replays every one of them, warm. Stop
// then cuts the file to its logical length.
func TestLogGrowsPastItsMapping(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	frames := windowFrames(t, 0, windowCapacity)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	kb.Put("A", "1")
	first := len(m.journal.data)
	const puts = 2 * mapAhead / 64 // past two mappings' worth of records
	for i := range puts {
		kb.PutEntity("SignalStrength", fmt.Sprintf("0x%05x", i), "-67")
		if i == 100 {
			appendAll(t, store, frames)
			syncAt(t, m, t0.Add(11*time.Second)) // a window chunk: a sync point, not a checkpoint
		}
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.journal.data); first == 0 || int64(got) < 2*mapAhead || m.JournalBytes() <= int64(first) {
		t.Fatalf("a %d-byte log is mapped %d bytes, first %d: want it remapped past its first mapping", m.JournalBytes(), got, first)
	}
	if got := logBytes(t, dir); got != m.JournalBytes() {
		t.Errorf("the log replays %d bytes, want all %d the manager appended", got, m.JournalBytes())
	}
	// Crash: the manager is abandoned where it stands.

	m2, kb2, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if got := kb2.Len(); got != puts+1 {
		t.Errorf("recovered %d knowggets, want %d", got, puts+1)
	}
	sameWindow(t, store2, frames)
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if got, want := fileSize(t, JournalPath(dir)), logBytes(t, dir); got != want {
		t.Errorf("a stopped log is %d bytes on disk, want its logical %d", got, want)
	}
}

// recordKnowgget is one KB record of the size a routing trace writes.
var recordKnowgget = knowledge.Knowgget{Creator: "K1", Label: "SignalStrength", Entity: "0x0003", Value: "-67.25"}

// TestRecordAllocs: once the log is mapped and the record buffers have
// grown, a KB record allocates nothing: it is encoded into reused
// buffers and copied into the mapping.
func TestRecordAllocs(t *testing.T) {
	m, _, _ := openManager(t, t.TempDir(), Metrics{})
	m.record(knowledge.OpPut, "", recordKnowgget) // warm: maps the log
	if got := testing.AllocsPerRun(1000, func() { m.record(knowledge.OpPut, "", recordKnowgget) }); got != 0 {
		t.Errorf("a KB record allocates %v times, want 0", got)
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// BenchmarkJournalRecord is the cost of one KB record: encoded, framed
// and copied into the log's mapping under the manager's lock, with a
// page fault every few dozen records and a remap every mapAhead bytes.
// A checkpoint, outside the timer, rewinds the log once it has grown
// rotateBytes, as a sync point would.
func BenchmarkJournalRecord(b *testing.B) {
	m, err := Open(Config{Dir: b.TempDir()}, knowledge.NewBase("K1"), datastore.New(windowCapacity))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if m.journal.bytes-m.base >= rotateBytes {
			b.StopTimer()
			if err := m.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		m.record(knowledge.OpPut, "", recordKnowgget)
	}
	b.StopTimer()
	if err := m.Stop(); err != nil {
		b.Fatal(err)
	}
}
