package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/telemetry"
)

func openManager(t *testing.T, dir string, met Metrics) (*Manager, *knowledge.Base) {
	t.Helper()
	kb := knowledge.NewBase("K1")
	m, err := Open(Config{Dir: dir, Interval: 10 * time.Second, Metrics: met}, kb)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m, kb
}

func kbMap(kb *knowledge.Base) map[string]string {
	out := make(map[string]string)
	for _, k := range kb.Snapshot() {
		out[k.Key()] = k.Value
	}
	return out
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// logBytes is the logical length of the log in dir as a replay finds
// it: the header and the frames, without the preallocated zero tail the
// file carries while it is mapped, or after a node that did not stop.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	log, err := replayJournalFile(t, JournalPath(dir))
	if err != nil || log.torn {
		t.Fatalf("log of %d good bytes: torn %v, err %v", log.good, log.torn, err)
	}
	return log.good
}

// wantKnowledgeOnly checks that every frame of the log in dir is a KB
// record: no window frame, whatever the node took in.
func wantKnowledgeOnly(t *testing.T, dir string) {
	t.Helper()
	for i, op := range LogOps(t, dir) {
		if op != knowledge.OpPut && op != knowledge.OpDelete {
			t.Fatalf("log frame %d has op %d: a state dir holds KB records only", i, op)
		}
	}
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

// TestWarmRestart is the core contract: a cleanly stopped node leaves a
// state dir of two files, the snapshot and a log of its header alone,
// and comes back warm with its full KB (separator-bearing keys
// included), static labels, and collective versions.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	if m.Outcome() != OutcomeCold {
		t.Fatalf("fresh dir outcome = %s, want cold", m.Outcome())
	}
	kb.Put("Multihop", "true")
	kb.PutEntity("SignalStrength", "Sensor@A", "-67") // separator in entity
	kb.PutStatic("Mobility", "", "false")
	kb.AcceptGossip("K2", knowledge.Knowgget{Label: "Y", Value: "2", Creator: "K2", Version: 1})
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantTwoFiles(t, dir)
	if got := fileSize(t, JournalPath(dir)); got != journalHeaderLen {
		t.Errorf("after Stop the log is %d bytes, want its %d-byte header", got, journalHeaderLen)
	}

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if got, want := kbMap(kb2), kbMap(kb); len(got) != len(want) {
		t.Fatalf("restored %d knowggets, want %d: %v", len(got), len(want), got)
	} else {
		for k, v := range want {
			if got[k] != v {
				t.Errorf("restored[%q] = %q, want %q", k, got[k], v)
			}
		}
	}
	if v, ok := kb2.EntityValue("SignalStrength", "Sensor@A"); !ok || v != "-67" {
		t.Errorf("escaped-entity knowgget lost: (%q,%v)", v, ok)
	}
	if !kb2.IsStatic("Mobility") {
		t.Error("static label lost across restart")
	}
	if peer, ok := kb2.Get("K2$Y"); !ok || !peer.Collective || peer.Version != 1 {
		t.Errorf("peer knowgget's collective flag or version lost: %+v", peer)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop2: %v", err)
	}
}

// TestJournalOnlyRecovery models a crash before any compaction: no
// snapshot, journal only. Deletes must replay too.
func TestJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.Put("B", "2")
	kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "B"}.Key())
	// Crash: no Stop, no Compact. Appends were flushed per-record.
	_ = m

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("A = (%q,%v)", v, ok)
	}
	if _, ok := kb2.Value("B"); ok {
		t.Error("deleted knowgget resurrected by replay")
	}
	if _, n := m2.Recovered(); n != 3 {
		t.Errorf("replayed = %d entries, want 3", n)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestTornJournalTruncates: a torn final record recovers the verified
// prefix (outcome truncated), never an error or a partial entry.
func TestTornJournalTruncates(t *testing.T) {
	dir := t.TempDir()
	_, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.Put("B", "2")
	if err := Tear(dir, 3); err != nil { // chop mid-record, as a power cut would
		t.Fatalf("Tear: %v", err)
	}

	rec := telemetry.NewRegistry()
	met := Metrics{Recoveries: rec.CounterVec("kalis_persist_recoveries_total", "outcome", "recoveries by outcome")}
	m2, kb2 := openManager(t, dir, met)
	if m2.Outcome() != OutcomeTruncated {
		t.Fatalf("outcome = %s, want truncated", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("verified prefix lost: A = (%q,%v)", v, ok)
	}
	if _, ok := kb2.Value("B"); ok {
		t.Error("torn record partially applied")
	}
	if got := met.Recoveries.With(string(OutcomeTruncated)).Value(); got != 1 {
		t.Errorf("recoveries{truncated} = %d, want 1", got)
	}
	// The truncated tail must not resurface on the next restart.
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	m3, kb3 := openManager(t, dir, Metrics{})
	if m3.Outcome() != OutcomeWarm {
		t.Errorf("post-truncation restart = %s, want warm", m3.Outcome())
	}
	if _, ok := kb3.Value("B"); ok {
		t.Error("torn record resurrected")
	}
	if err := m3.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestCorruptSnapshotColdStart: a flipped bit anywhere in the snapshot
// degrades to a cold start with the corrupt file archived — never a
// partial load.
func TestCorruptSnapshotColdStart(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	raw, err := os.ReadFile(SnapshotPath(dir))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(SnapshotPath(dir), raw, 0o644); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeCold {
		t.Fatalf("outcome = %s, want cold", m2.Outcome())
	}
	if kb2.Len() != 0 {
		t.Errorf("cold start restored %d knowggets", kb2.Len())
	}
	if _, err := os.Stat(SnapshotPath(dir) + ".corrupt"); err != nil {
		t.Error("corrupt snapshot not archived for post-mortem")
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestBadJournalHeaderWithSnapshot: lost journal header, intact
// snapshot → the base state applies, outcome truncated.
func TestBadJournalHeaderWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := os.WriteFile(JournalPath(dir), []byte("XXXX\x01garbage"), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeTruncated {
		t.Fatalf("outcome = %s, want truncated", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("snapshot base lost: A = (%q,%v)", v, ok)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// syncMetrics are live counters for telling sync points and checkpoints
// apart.
func syncMetrics() Metrics {
	rec := telemetry.NewRegistry()
	return Metrics{
		Snapshots:    rec.Counter("kalis_persist_snapshot_total", "checkpoints written"),
		Syncs:        rec.Counter("kalis_persist_sync_total", "sync points that wrote"),
		JournalBytes: rec.Gauge("kalis_persist_journal_bytes", "journal size"),
	}
}

// wantCounters checks how many sync points and checkpoints met has
// counted.
func wantCounters(t *testing.T, met Metrics, when string, syncs, snapshots uint64) {
	t.Helper()
	if got := met.Syncs.Value(); got != syncs {
		t.Errorf("%s: syncs = %d, want %d", when, got, syncs)
	}
	if got := met.Snapshots.Value(); got != snapshots {
		t.Errorf("%s: snapshots = %d, want %d", when, got, snapshots)
	}
}

// fillJournal puts distinct knowggets until the log is one record short
// of growing rotateBytes past its header, and returns how many
// it put.
func fillJournal(t *testing.T, m *Manager, kb *knowledge.Base) int {
	t.Helper()
	threshold := int64(journalHeaderLen + rotateBytes)
	n, record := 0, int64(0)
	for m.JournalBytes()+record < threshold {
		before := m.JournalBytes()
		kb.PutEntity("SignalStrength", fmt.Sprintf("0x%04x", n), "-67")
		n++
		record = m.JournalBytes() - before
	}
	if got := m.JournalBytes(); got >= threshold || got+record < threshold {
		t.Fatalf("log is %d bytes after %d records of %d: want one record short of %d", got, n, record, threshold)
	}
	return n
}

// TestTickCompaction drives the manager from a virtual capture clock
// and tells its two periodic actions apart: a sync point, every
// interval, fsyncs the log where it lies; a checkpoint — snapshot
// written, log rewritten as its header — happens at a sync point only
// once the log has grown rotateBytes, and at Stop.
func TestTickCompaction(t *testing.T) {
	dir := t.TempDir()
	met := syncMetrics()
	m, kb := openManager(t, dir, met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0) // seeds the clock
	kb.Put("A", "1")
	journal := m.JournalBytes()
	if journal <= journalHeaderLen {
		t.Error("journal did not grow on put")
	}

	m.Tick(t0.Add(5 * time.Second)) // under the 10s interval
	wantCounters(t, met, "under the interval", 0, 0)
	if got := logBytes(t, dir); got != journal || m.journal.synced != journalHeaderLen {
		t.Errorf("under the interval: log %d bytes, synced to %d: only the KB record should have been written", got, m.journal.synced)
	}

	m.Tick(t0.Add(11 * time.Second))
	if err := m.Err(); err != nil { // waits for the sync point
		t.Fatal(err)
	}
	wantCounters(t, met, "past the interval", 1, 0)
	if got := m.JournalBytes(); got != journal || m.journal.synced != got || logBytes(t, dir) != got {
		t.Errorf("sync point: log %d bytes (%d before), synced to %d: want the KB record fsynced in place", got, journal, m.journal.synced)
	}
	if _, err := os.Stat(SnapshotPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("sync point wrote a snapshot (stat: %v)", err)
	}

	fillJournal(t, m, kb)
	kb.PutEntity("SignalStrength", "0xffff", "-67") // the record that crosses the threshold
	m.Tick(t0.Add(22 * time.Second))
	wantCounters(t, met, "past rotateBytes", 2, 1)
	if got, want := m.JournalBytes(), logBytes(t, dir); got != journalHeaderLen || want != journalHeaderLen {
		t.Errorf("checkpoint did not rewrite the log as its header: %d bytes (%d on disk)", got, want)
	}
	if snap, err := loadSnapshotFile(SnapshotPath(dir)); err != nil || snap == nil || len(snap.Knowggets) != kb.Len() {
		t.Errorf("checkpoint's snapshot: %v (err %v), want %d knowggets", snap, err, kb.Len())
	}

	// A clock rewind (trace replay restart) re-bases: no sync point until
	// a full interval past the new base.
	kb.Put("C", "3")
	m.Tick(t0)
	m.Tick(t0.Add(5 * time.Second))
	wantCounters(t, met, "rewound clock", 2, 1)
	m.Tick(t0.Add(10 * time.Second))
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	wantCounters(t, met, "an interval past the rewind", 3, 1)
	wantKnowledgeOnly(t, dir)

	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantCounters(t, met, "Stop", 3, 2)
	if got := fileSize(t, JournalPath(dir)); got != journalHeaderLen {
		t.Errorf("a clean shutdown left a %d-byte log, want its header alone", got)
	}
}

// replayJournalFile replays the log at path.
func replayJournalFile(t *testing.T, path string) (logContents, error) {
	t.Helper()
	log, err := loadJournalFile(path)
	return log, err
}

// TestQuietIntervalWritesNothing: a sync point with no knowledge change
// issues no write — the two state files keep their size, mtime and
// inode over ten intervals, and neither counter moves.
func TestQuietIntervalWritesNothing(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.PutStatic("Mobility", "", "false")
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	met := syncMetrics()
	m2, _ := openManager(t, dir, met)
	paths := []string{SnapshotPath(dir), JournalPath(dir)}
	stat := func() []os.FileInfo {
		t.Helper()
		out := make([]os.FileInfo, len(paths))
		for i, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = fi
		}
		return out
	}
	before := stat()
	t0 := time.Unix(1500000000, 0).UTC()
	for i := 0; i <= 10; i++ {
		m2.Tick(t0.Add(time.Duration(i) * 11 * time.Second))
	}
	for i, fi := range stat() {
		if b := before[i]; !os.SameFile(b, fi) || fi.Size() != b.Size() || !fi.ModTime().Equal(b.ModTime()) {
			t.Errorf("%s changed over ten quiet intervals: %d bytes at %v -> %d bytes at %v (same inode: %v)",
				filepath.Base(paths[i]), b.Size(), b.ModTime(), fi.Size(), fi.ModTime(), os.SameFile(b, fi))
		}
	}
	wantCounters(t, met, "ten quiet intervals", 0, 0)
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestPowerCutAfterSyncPoint: a power cut loses what no fsync covered —
// here, the log cut back to where the last sync point left it, on a
// record boundary or inside the next record. Everything accepted before
// the sync point is there, and nothing after it is.
func TestPowerCutAfterSyncPoint(t *testing.T) {
	for name, cut := range map[string]struct {
		extra int64
		want  Outcome
	}{
		"on a record boundary":   {0, OutcomeWarm},
		"inside the next record": {3, OutcomeTruncated},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			met := syncMetrics()
			m, kb := openManager(t, dir, met)
			t0 := time.Unix(1500000000, 0).UTC()
			m.Tick(t0)
			kb.Put("A", "1")
			kb.Put("B", "2")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())
			m.Tick(t0.Add(11 * time.Second))
			if err := m.Err(); err != nil { // waits for the sync point
				t.Fatal(err)
			}
			wantCounters(t, met, "a sync point under the threshold", 1, 0)
			journal := m.journal.synced
			kb.Put("C", "3")
			kb.Put("B", "4")
			m.Tick(t0.Add(15 * time.Second)) // under the interval: no sync point
			// Power cut: the manager is abandoned, the unsynced tails are gone.
			if err := os.Truncate(JournalPath(dir), journal+cut.extra); err != nil {
				t.Fatal(err)
			}

			m2, kb2 := openManager(t, dir, Metrics{})
			if m2.Outcome() != cut.want {
				t.Fatalf("outcome = %s, want %s", m2.Outcome(), cut.want)
			}
			if got := kbMap(kb2); len(got) != 1 || got["K1$B"] != "2" {
				t.Errorf("recovered %v, want exactly what the sync point covered: B = 2", got)
			}
			if err := m2.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

// TestStaticMarkSurvivesSyncPoint: a label's static mark lives in the
// snapshot alone, so the sync point after a PutStatic checkpoints — the
// mark is on disk within an interval, like the knowgget it marks, also
// when the value was already known and the journal saw nothing.
func TestStaticMarkSurvivesSyncPoint(t *testing.T) {
	dir := t.TempDir()
	met := syncMetrics()
	m, kb := openManager(t, dir, met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	kb.Put("Multihop", "true")
	kb.PutStatic("Mobility", "", "false")
	m.Tick(t0.Add(11 * time.Second))
	kb.PutStatic("Multihop", "", "true") // no change of value: no journal record
	m.Tick(t0.Add(22 * time.Second))
	wantCounters(t, met, "two sync points that each found a new static label", 2, 2)
	kb.Put("A", "1")
	m.Tick(t0.Add(33 * time.Second))
	if err := m.Err(); err != nil { // waits for the sync point
		t.Fatal(err)
	}
	wantCounters(t, met, "a sync point with no new static label", 3, 2)
	// Crash: the manager is abandoned where it stands.

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	for _, label := range []string{"Mobility", "Multihop"} {
		if !kb2.IsStatic(label) {
			t.Errorf("static mark of %s lost: it was put a full interval before the crash", label)
		}
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("A = (%q,%v)", v, ok)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestFullJournalReplays: a log one record short of the checkpoint
// threshold — the longest a sync point leaves behind — recovers warm
// with every entry applied. What deferring the checkpoint costs the
// next Open (the benchmark's persist.recover_ms) is logged, split into
// its parts, each the fastest of a few runs: the replay of the log's
// bytes, folding the entries into the state, and knowledge.Base.Restore
// installing it.
func TestFullJournalReplays(t *testing.T) {
	dir := t.TempDir()
	met := syncMetrics()
	m, kb := openManager(t, dir, met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	n := fillJournal(t, m, kb)
	m.Tick(t0.Add(11 * time.Second))
	if err := m.Err(); err != nil { // waits for the sync point
		t.Fatal(err)
	}
	wantCounters(t, met, "a log one record under the threshold", 1, 0)
	size := m.JournalBytes()
	// Crash: the manager is abandoned where it stands.

	fastest := func(f func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			f()
			best = min(best, time.Since(start))
		}
		return best
	}
	var log logContents
	replay := fastest(func() {
		var err error
		if log, err = replayJournalFile(t, JournalPath(dir)); err != nil || log.torn || log.good != size || len(log.entries) != n {
			t.Fatalf("replay: %d entries of %d, %d good bytes of %d, torn %v, err %v", len(log.entries), n, log.good, size, log.torn, err)
		}
	})
	apply := fastest(func() { (&Manager{kb: knowledge.NewBase("K1")}).apply(nil, log) })
	state := kb.Snapshot()
	restore := fastest(func() { knowledge.NewBase("K1").Restore(state, nil) })
	start := time.Now()
	m2, kb2 := openManager(t, dir, Metrics{})
	reopen := time.Since(start)
	t.Logf("journal of %d records, %d bytes: replay %v, entries folded %v, Base.Restore %v; Open, which keeps the log, took %v",
		n, size, replay, max(apply-restore, 0), restore, reopen)
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if _, replayed := m2.Recovered(); replayed != n || kb2.Len() != n {
		t.Errorf("replayed %d entries into %d knowggets, want %d of each", replayed, kb2.Len(), n)
	}
	if v, ok := kb2.EntityValue("SignalStrength", fmt.Sprintf("0x%04x", n-1)); !ok || v != "-67" {
		t.Errorf("the last record before the crash = (%q,%v)", v, ok)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestSnapshotDecodeRejects exercises the loader against structural
// corruption beyond bit flips.
func TestSnapshotDecodeRejects(t *testing.T) {
	good := EncodeSnapshotBytes(&Snapshot{
		Knowggets:    []knowledge.Knowgget{{Creator: "K1", Label: "A", Value: "1"}},
		StaticLabels: []string{"Mobility"},
	})
	if _, err := DecodeSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XSNP"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"truncated":   good[:len(good)-3],
		"duplicate section": append(append([]byte{}, good...),
			good[5:]...), // replays both sections a second time
	}
	for name, raw := range cases {
		if _, err := DecodeSnapshot(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// TestStickyJournalError: once the journal or the writer's disk fails,
// the manager reports the first failure — from Err and from Stop — and
// stops journaling and handing off sync points instead of panicking.
// The journal fails where a full disk would fail it: a new Open maps
// its log at the first record, and that record's preallocation fails.
func TestStickyJournalError(t *testing.T) {
	t.Run("journal write", func(t *testing.T) {
		dir := t.TempDir()
		m, kb := openManager(t, dir, Metrics{})
		m.mu.Lock()
		if m.journal.data != nil {
			t.Fatal("the log is mapped before its first record")
		}
		m.journal.f.Close() // sabotage the fd: the preallocation fails
		m.mu.Unlock()
		kb.Put("A", "1")
		kb.Put("B", "2") // second put hits the sticky-error fast path
		if m.Err() == nil {
			t.Fatal("journal failure not reported")
		}
		if err := m.Stop(); err == nil {
			t.Error("Stop swallowed the sticky error")
		}
	})

	t.Run("writer fsync", func(t *testing.T) {
		disk := errors.New("disk gone")
		var failing atomic.Bool
		var failed atomic.Int32
		swapFsync(t, func(sync func(*os.File) error) func(*os.File) error {
			return func(f *os.File) error {
				if failing.Load() {
					failed.Add(1)
					return disk
				}
				return sync(f)
			}
		})
		met := syncMetrics()
		m, kb := openManager(t, t.TempDir(), met)
		t0 := time.Unix(1500000000, 0).UTC()
		m.Tick(t0)
		kb.Put("A", "1")
		failing.Store(true)
		m.Tick(t0.Add(11 * time.Second))
		first := m.Err()
		if !errors.Is(first, disk) {
			t.Fatalf("Err = %v, want the writer's fsync failure", first)
		}
		wantCounters(t, met, "a failed sync point", 0, 0)
		journal, calls := m.JournalBytes(), failed.Load()
		kb.Put("B", "2")
		m.Tick(t0.Add(22 * time.Second))
		m.Tick(t0.Add(33 * time.Second))
		if err := m.Err(); err != first {
			t.Errorf("Err = %v after more traffic, want the first failure %v", err, first)
		}
		if got := m.JournalBytes(); got != journal {
			t.Errorf("journal grew %d -> %d bytes after the failure", journal, got)
		}
		if got := failed.Load(); got != calls {
			t.Errorf("%d more fsyncs after the failure: a sync point was handed off", got-calls)
		}
		if err := m.Stop(); err != first {
			t.Errorf("Stop = %v, want the first failure %v", err, first)
		}
	})
}

// swapFsync replaces fsync for the rest of the test with what wrap makes
// of it. Call it before Open: the writer reads fsync from then on.
func swapFsync(t *testing.T, wrap func(func(*os.File) error) func(*os.File) error) {
	t.Helper()
	orig := fsync
	fsync = wrap(orig)
	t.Cleanup(func() { fsync = orig })
}

// fsyncGate holds every fsync, once shut, until it is opened.
type fsyncGate struct {
	shut    atomic.Bool
	held    atomic.Int32 // fsyncs the gate has held
	entered chan struct{}
	opened  chan struct{}
}

// gateFsync installs a gate, open until shut; the test's end opens it.
func gateFsync(t *testing.T) *fsyncGate {
	g := &fsyncGate{entered: make(chan struct{}, 16), opened: make(chan struct{})}
	swapFsync(t, func(sync func(*os.File) error) func(*os.File) error {
		return func(f *os.File) error {
			if g.shut.Load() {
				g.held.Add(1)
				g.entered <- struct{}{}
				<-g.opened
			}
			return sync(f)
		}
	})
	t.Cleanup(g.open) // runs before the swap is undone
	return g
}

func (g *fsyncGate) open() {
	if g.shut.CompareAndSwap(true, false) {
		close(g.opened)
	}
}

// waitHeld waits until the gate holds an fsync.
func (g *fsyncGate) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no fsync reached the gate")
	}
}

// returnsSoon runs f and fails the test if it has not returned within
// seconds: f is waiting for the disk.
func returnsSoon(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for the disk", what)
	}
}

// TestSyncPointDoesNotWaitForTheDisk holds the writer's fsync: Tick
// hands the sync point off and returns, mutations keep being accepted,
// and a sync point that falls due meanwhile neither blocks nor starts a
// second one. Opening the gate completes the sync point, which made
// durable what was accepted before its hand-off, and the first Tick
// after it runs the postponed one.
func TestSyncPointDoesNotWaitForTheDisk(t *testing.T) {
	gate := gateFsync(t)
	met := syncMetrics()
	m, kb := openManager(t, t.TempDir(), met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	kb.Put("A", "1")
	journal := m.JournalBytes()

	gate.shut.Store(true)
	returnsSoon(t, "Tick at a sync point", func() { m.Tick(t0.Add(11 * time.Second)) })
	gate.waitHeld(t)
	kb.Put("B", "2")
	if got := m.JournalBytes(); got <= journal {
		t.Errorf("during the sync point: journal %d bytes (was %d): mutations must keep flowing", got, journal)
	}
	returnsSoon(t, "Tick with a sync point due in flight", func() {
		m.Tick(t0.Add(22 * time.Second))
		m.Tick(t0.Add(33 * time.Second))
	})
	wantCounters(t, met, "in flight", 0, 0)

	gate.open()
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	wantCounters(t, met, "the gate opened", 1, 0)
	if got := gate.held.Load(); got != 1 {
		t.Errorf("the gate held %d fsyncs, want the one of the sync point in flight", got)
	}
	if m.journal.synced != journal {
		t.Errorf("the sync point covered %d log bytes, want what its hand-off saw: %d", m.journal.synced, journal)
	}

	m.Tick(t0.Add(34 * time.Second)) // the first Tick after it: the postponed sync point
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	wantCounters(t, met, "the postponed sync point", 2, 0)
	if m.journal.synced != m.JournalBytes() {
		t.Errorf("the postponed sync point covered %d of %d journal bytes", m.journal.synced, m.JournalBytes())
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// copyDir copies a state directory's files as they stand: the disk at
// the instant of a power cut.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// TestPowerCutDuringSync cuts the power while a sync point is in flight,
// its writer held in its fsync, and knowledge still changing: whatever
// no completed sync point fsynced may be lost. With the log cut back to
// where the previous sync point left it, recovery restores exactly what
// that sync point covered. When the kernel had written back the records
// the sync point in flight was making durable, but not those written
// behind them, recovery restores what its hand-off saw.
func TestPowerCutDuringSync(t *testing.T) {
	for name, cut := range map[string]struct {
		inFlight bool              // the log keeps the records the sync point in flight covers
		kb       map[string]string // the Knowledge Base after the restart
	}{
		"cut at the last sync point": {false, map[string]string{"K1$A": "1", "K1$B": "2"}},
		"records in flight flushed":  {true, map[string]string{"K1$A": "1", "K1$B": "5", "K1$D": "4"}},
	} {
		t.Run(name, func(t *testing.T) {
			gate := gateFsync(t)
			dir := t.TempDir()
			m, kb := openManager(t, dir, Metrics{})
			t0 := time.Unix(1500000000, 0).UTC()
			m.Tick(t0)
			kb.Put("A", "1")
			kb.Put("B", "2")
			m.Tick(t0.Add(11 * time.Second))
			if err := m.Err(); err != nil { // the sync point completes
				t.Fatal(err)
			}
			journal := m.journal.synced
			kb.Put("D", "4")
			kb.Put("B", "5")
			gate.shut.Store(true)
			m.Tick(t0.Add(22 * time.Second))
			gate.waitHeld(t) // the sync point's fsync is held
			inFlight := m.JournalBytes()
			kb.Put("C", "3")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())

			cutDir := copyDir(t, dir)
			if inFlight <= journal {
				t.Fatalf("the sync point in flight covers no record: log %d bytes", inFlight)
			}
			to := journal
			if cut.inFlight {
				to = inFlight
			}
			if err := os.Truncate(JournalPath(cutDir), to); err != nil {
				t.Fatal(err)
			}
			gate.open()
			m2, kb2 := openManager(t, cutDir, Metrics{})
			if m2.Outcome() != OutcomeWarm {
				t.Fatalf("outcome = %s, want warm", m2.Outcome())
			}
			if got := kbMap(kb2); !maps.Equal(got, cut.kb) {
				t.Errorf("recovered %v, want what the log kept: %v", got, cut.kb)
			}
			if err := m2.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
			if err := m.Stop(); err != nil {
				t.Fatalf("Stop: %v", err)
			}
		})
	}
}

// TestWarmOpenKeepsTheJournal: a warm Open of a journal under
// rotateBytes appends to it where recovery verified it, instead of
// writing a snapshot and rotating — the snapshot file is untouched and
// no checkpoint is counted — and a second crash and Open recover the
// same Knowledge Base, what the first restart added included.
func TestWarmOpenKeepsTheJournal(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.PutStatic("Mobility", "", "false")
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	kb.Put("B", "2")
	kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())
	// Crash: the manager is abandoned where it stands.
	snap, err := os.Stat(SnapshotPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	journal := logBytes(t, dir)

	met := syncMetrics()
	m2, kb2 := openManager(t, dir, met)
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	want := map[string]string{"K1$B": "2", "K1$Mobility": "false"}
	if got := kbMap(kb2); !maps.Equal(got, want) {
		t.Errorf("recovered %v, want %v", got, want)
	}
	if fi, err := os.Stat(SnapshotPath(dir)); err != nil || !os.SameFile(fi, snap) || !fi.ModTime().Equal(snap.ModTime()) || fi.Size() != snap.Size() {
		t.Errorf("a warm Open rewrote the snapshot (stat err %v)", err)
	}
	if got := m2.JournalBytes(); got != journal || logBytes(t, dir) != journal {
		t.Errorf("a warm Open left a %d-byte journal, want the %d bytes it recovered", got, journal)
	}
	kb2.Put("C", "3")
	t0 := time.Unix(1500000000, 0).UTC()
	m2.Tick(t0)
	m2.Tick(t0.Add(11 * time.Second)) // no new static label: a sync point, not a checkpoint
	if err := m2.Err(); err != nil {
		t.Fatal(err)
	}
	wantCounters(t, met, "a warm Open and a sync point", 1, 0)
	// Crash again.

	m3, kb3 := openManager(t, dir, Metrics{})
	if m3.Outcome() != OutcomeWarm {
		t.Fatalf("second outcome = %s, want warm", m3.Outcome())
	}
	want["K1$C"] = "3"
	if got := kbMap(kb3); !maps.Equal(got, want) {
		t.Errorf("second restart recovered %v, want %v", got, want)
	}
	if !kb3.IsStatic("Mobility") {
		t.Error("static mark lost")
	}
	if err := m3.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestManagerDirError: an unusable state dir fails Open loudly rather
// than running without durability.
func TestManagerDirError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	kb := knowledge.NewBase("K1")
	if _, err := Open(Config{Dir: dir}, kb); err == nil {
		t.Fatal("Open on a non-directory succeeded")
	}
}

// TestJournalReplayProperties pins replay edge cases directly.
func TestJournalReplayProperties(t *testing.T) {
	// Header only: clean empty journal.
	raw := append(append([]byte{}, JournalMagic[:]...), JournalVersion)
	log, err := replayJournal(raw)
	if err != nil || log.torn || len(log.entries) != 0 || log.good != journalHeaderLen {
		t.Errorf("empty journal: %v %v %d %d", err, log.torn, len(log.entries), log.good)
	}
	// Short header: ErrJournalHeader.
	if _, err := replayJournal(raw[:3]); !errors.Is(err, ErrJournalHeader) {
		t.Errorf("short header err = %v", err)
	}
	// Garbage after the header: torn at offset journalHeaderLen.
	bad := append(append([]byte{}, raw...), 0xff, 0xff, 0xff)
	log, err = replayJournal(bad)
	if err != nil || !log.torn || len(log.entries) != 0 || log.good != journalHeaderLen {
		t.Errorf("garbage tail: %v %v %d %d", err, log.torn, len(log.entries), log.good)
	}
}

// TestSyncPointIsOneFsync counts the fsyncs of a sync point: every KB
// record written since the last one is in the log, so one fsync makes
// them all durable — two records, one, or a thousand.
func TestSyncPointIsOneFsync(t *testing.T) {
	var calls atomic.Int32
	swapFsync(t, func(sync func(*os.File) error) func(*os.File) error {
		return func(f *os.File) error {
			calls.Add(1)
			return sync(f)
		}
	})
	met := syncMetrics()
	m, kb := openManager(t, t.TempDir(), met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	for i, records := range []int{2, 1, 1000} {
		for j := range records {
			kb.PutEntity("SignalStrength", fmt.Sprintf("0x%04x", j), fmt.Sprint(i))
		}
		calls.Store(0)
		m.Tick(t0.Add(time.Duration(i+1) * 11 * time.Second))
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("a sync point with %d KB records made %d fsyncs, want 1", records, got)
		}
	}
	wantCounters(t, met, "three sync points", 3, 0)
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestRecordDuringSyncPoint runs KB mutations on one goroutine while
// sync points fsync the same log on the writer (run it with -race):
// every record lands whole, so the log replays clean, with every
// mutation once.
func TestRecordDuringSyncPoint(t *testing.T) {
	dir := t.TempDir()
	kb := knowledge.NewBase("K1")
	m, err := Open(Config{Dir: dir, Interval: time.Second}, kb)
	if err != nil {
		t.Fatal(err)
	}
	const puts = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range puts {
			kb.PutEntity("SignalStrength", fmt.Sprintf("0x%04x", i), "-67")
		}
	}()
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	for i := 0; i < 40; i++ {
		m.Tick(t0.Add(time.Duration(i+1) * time.Second))
		runtime.Gosched()
	}
	<-done
	if err := m.Err(); err != nil { // waits for the sync point in flight
		t.Fatal(err)
	}
	syncAt(t, m, t0.Add(time.Hour))
	// Crash: the manager is abandoned where it stands.

	log, err := replayJournalFile(t, JournalPath(dir))
	if err != nil || log.torn || log.good != m.JournalBytes() {
		t.Fatalf("replay: torn %v, %d good bytes of %d, err %v", log.torn, log.good, m.JournalBytes(), err)
	}
	seen := make(map[string]int)
	for _, e := range log.entries {
		seen[e.Knowgget.Entity]++
	}
	if len(log.entries) != puts || len(seen) != puts {
		t.Errorf("the log holds %d KB records of %d distinct entities, want each of the %d once", len(log.entries), len(seen), puts)
	}
	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm || kb2.Len() != puts {
		t.Fatalf("restart: %s with %d knowggets, want warm with %d", m2.Outcome(), kb2.Len(), puts)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestCrashInsideCompaction stops a checkpoint after each of its steps
// — the log made durable but nothing more; the snapshot renamed but the
// log not yet replaced; the log's replacement fsynced as a temp file but
// not renamed — and restarts from what is on disk: warm every time, with
// every knowgget and static mark as accepted, from a state dir of two
// files whose log holds KB records alone.
func TestCrashInsideCompaction(t *testing.T) {
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
			m, kb := openManager(t, dir, Metrics{})
			kb.Put("A", "1")
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			kb.Put("B", "2")
			kb.PutStatic("Mobility", "", "false")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())
			m.mu.Lock()
			err := partial(m)
			m.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			// Crash: the manager is abandoned where it stands.

			m2, kb2 := openManager(t, dir, Metrics{})
			if m2.Outcome() != OutcomeWarm {
				t.Fatalf("outcome = %s, want warm", m2.Outcome())
			}
			if got, want := kbMap(kb2), map[string]string{"K1$B": "2", "K1$Mobility": "false"}; !maps.Equal(got, want) {
				t.Errorf("recovered %v, want %v", got, want)
			}
			if name != "log ahead of snapshot" && !kb2.IsStatic("Mobility") {
				t.Error("the static mark the snapshot holds is lost")
			}
			wantTwoFiles(t, dir)
			wantKnowledgeOnly(t, dir)
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
	m, kb := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	if err := m.Compact(); err != nil {
		t.Fatal(err)
	}
	kb.Put("B", "2")
	// Crash: the manager is abandoned where it stands.
	tmp := JournalPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, []byte("KJNL\x01half a record"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, kb2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if got, want := kbMap(kb2), map[string]string{"K1$A": "1", "K1$B": "2"}; !maps.Equal(got, want) {
		t.Errorf("recovered %v, want %v", got, want)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("leftover %s not removed: %v", tmp, err)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestSyncPointAllocs: a sync point hands the log off to a writer that
// lives from Open to Stop, which fsyncs it where it lies, so it
// allocates nothing — neither on the capture goroutine nor on the
// writer, whether ten KB records arrived in the interval or a thousand.
// A goroutine, a closure or a hand-off value on the heap per sync point
// would cost one; copying the records out to write them, more.
func TestSyncPointAllocs(t *testing.T) {
	values := make([]string, 1000)
	for i := range values {
		values[i] = fmt.Sprint(-i)
	}
	perSync := func(fresh int) uint64 {
		kb := knowledge.NewBase("K1")
		m, err := Open(Config{Dir: t.TempDir(), Interval: time.Second}, kb) // no checkpoint within the runs below
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
		round := 0
		// syncPoint puts fresh records, each a change, and counts what
		// the sync point after them allocates, waiting for the writer to
		// finish it.
		syncPoint := func() uint64 {
			round++
			for i := range fresh {
				kb.PutEntity("SignalStrength", values[i], values[(i+round)%len(values)])
			}
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
		syncPoint() // warm: the log mapped, the KB's entries made
		const runs = 4
		var allocs uint64
		for range runs {
			allocs += syncPoint()
		}
		if m.journal.synced != m.journal.bytes || m.journal.bytes <= journalHeaderLen {
			t.Fatalf("%d sync points of %d records made %d of %d log bytes durable", runs+1, fresh, m.journal.synced, m.journal.bytes)
		}
		return allocs / runs // as testing.AllocsPerRun averages, so a stray runtime allocation does not count
	}
	few, many := perSync(10), perSync(1000)
	if few != 0 || many != 0 {
		t.Errorf("a sync point allocates %d objects for 10 fresh records and %d for 1 000, want none", few, many)
	}
}

// TestRewriteBytes: a checkpoint rewrites the log as its header alone,
// whatever the log held — KB records, and the window frames of an older
// commit's log — and what the rewrite allocates does not grow with
// either: the temp file's handle and path, and nothing of the log.
func TestRewriteBytes(t *testing.T) {
	var allocs []uint64
	for _, records := range []int{2000, 8000} {
		dir := t.TempDir()
		older := bytes.Join([][]byte{logHeader, putRecord(knowledge.Knowgget{Creator: "K1", Label: "A", Value: "1"}), windowChunk(t, 0, 256)}, nil)
		if err := os.WriteFile(JournalPath(dir), older, 0o644); err != nil {
			t.Fatal(err)
		}
		m, kb := openManager(t, dir, Metrics{})
		for i := range records {
			kb.PutEntity("SignalStrength", fmt.Sprintf("0x%04x", i), "-67")
		}
		if ops := LogOps(t, dir); len(ops) != records+2 || ops[1] != opWindow {
			t.Fatalf("%d records: the log holds %d frames, want the older log's record and window chunk, then every record", records, len(ops))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.mu.Lock()
		err := m.writeLog()
		m.mu.Unlock()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		allocs = append(allocs, allocated)
		if got, err := os.ReadFile(JournalPath(dir)); err != nil || !bytes.Equal(got, logHeader) || m.JournalBytes() != journalHeaderLen {
			t.Errorf("%d records: the rewritten log is % x (err %v), %d bytes logical: want its header alone", records, got, err, m.JournalBytes())
		}
		t.Logf("rewriting a log of %d records allocates %d bytes", records, allocated)
		if err := m.Stop(); err != nil {
			t.Error(err)
		}
	}
	if allocs[0] > 4<<10 || allocs[1] > 4<<10 {
		t.Errorf("a log rewrite allocates %d and %d bytes, want a few file handles and paths: at most 4 KiB", allocs[0], allocs[1])
	}
}

// TestLargestRecordReplaysWhole: the log's one length cap is set by the
// largest KB record, not by a window chunk: a put of a value past
// 16 MiB — longer than a window chunk could be — is written, replays
// whole with the record behind it, and survives the checkpoint into the
// snapshot; a length claim of maxFrame passes the cap, one byte more
// does not.
func TestLargestRecordReplaysWhole(t *testing.T) {
	dir := t.TempDir()
	m, kb := openManager(t, dir, Metrics{})
	big := strings.Repeat("x", 1<<24+64)
	kb.Put("Big", big)
	kb.Put("A", "1")
	log, err := replayJournalFile(t, JournalPath(dir))
	if err != nil || log.torn || len(log.entries) != 2 || log.entries[0].Knowgget.Value != big || log.good != m.JournalBytes() {
		t.Fatalf("replay: %d KB records, %d of %d bytes (torn %v, err %v), want both records whole", len(log.entries), log.good, m.JournalBytes(), log.torn, err)
	}
	log = logContents{}
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	m2, kb2 := openManager(t, dir, Metrics{})
	if v, ok := kb2.Value("Big"); m2.Outcome() != OutcomeWarm || !ok || v != big {
		t.Errorf("after the checkpoint: %s with a %d-byte value, want warm with %d bytes", m2.Outcome(), len(v), len(big))
	}
	if err := m2.Stop(); err != nil {
		t.Fatal(err)
	}

	for claim, want := range map[uint64]string{maxFrame: "frame body", maxFrame + 1: "frame length"} {
		raw := binary.AppendUvarint(nil, claim)
		_, _, err := readFrame(bufio.NewReader(bytes.NewReader(append(raw, "a few bytes"...))), maxFrame)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("a length claim of %d: %v, want a %q error", claim, err, want)
		}
	}
}
