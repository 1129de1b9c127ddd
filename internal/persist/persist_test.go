package persist

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/telemetry"
	"kalis/internal/trace"
)

// sampleCaptures decodes two real CTP frames so the Data Store window
// round-trips through the embedded trace encoding with genuine layers.
func sampleCaptures(t *testing.T) []*packet.Captured {
	t.Helper()
	t0 := time.Unix(1500000000, 0).UTC()
	recs := []*trace.Record{
		{Time: t0, Medium: packet.MediumIEEE802154, RSSI: -61.5,
			Raw: stack.BuildCTPData(5, 3, 5, 1, 0, 100, []byte("r1"))},
		{Time: t0.Add(3 * time.Second), Medium: packet.MediumIEEE802154, RSSI: -72.25,
			Raw: stack.BuildCTPBeacon(3, 1, 30, 2)},
	}
	var out []*packet.Captured
	for _, r := range recs {
		c, err := r.Decode()
		if err != nil {
			t.Fatalf("decode sample: %v", err)
		}
		out = append(out, c)
	}
	return out
}

func openManager(t *testing.T, dir string, met Metrics) (*Manager, *knowledge.Base, *datastore.Store) {
	t.Helper()
	kb := knowledge.NewBase("K1")
	store := datastore.New(64)
	m, err := Open(Config{Dir: dir, Interval: 10 * time.Second, Metrics: met}, kb, store)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m, kb, store
}

func kbMap(kb *knowledge.Base) map[string]string {
	out := make(map[string]string)
	for _, k := range kb.Snapshot() {
		out[k.Key()] = k.Value
	}
	return out
}

// TestWarmRestart is the core contract: a cleanly stopped node leaves a
// state dir of two files, the snapshot and the log, and comes back warm
// with its full KB (separator-bearing keys included), static labels,
// and Data Store window.
func TestWarmRestart(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	if m.Outcome() != OutcomeCold {
		t.Fatalf("fresh dir outcome = %s, want cold", m.Outcome())
	}
	kb.Put("Multihop", "true")
	kb.PutEntity("SignalStrength", "Sensor@A", "-67") // separator in entity
	kb.PutStatic("Mobility", "", "false")
	kb.AcceptGossip("K2", knowledge.Knowgget{Label: "Y", Value: "2", Creator: "K2", Version: 1})
	for _, c := range sampleCaptures(t) {
		if err := store.Append(c); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantTwoFiles(t, dir)

	m2, kb2, store2 := openManager(t, dir, Metrics{})
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
	if store2.Len() != 2 {
		t.Errorf("window = %d records, want 2", store2.Len())
	}
	recent := store2.Recent(0)
	if len(recent) == 2 && !recent[0].Time.Equal(time.Unix(1500000000, 0).UTC()) {
		t.Errorf("window order/time wrong: %v", recent[0].Time)
	}
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop2: %v", err)
	}
}

// TestJournalOnlyRecovery models a crash before any compaction: no
// snapshot, journal only. Deletes must replay too.
func TestJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	m, kb, _ := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.Put("B", "2")
	kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "B"}.Key())
	// Crash: no Stop, no Compact. Appends were flushed per-record.
	_ = m

	m2, kb2, _ := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if v, ok := kb2.Value("A"); !ok || v != "1" {
		t.Errorf("A = (%q,%v)", v, ok)
	}
	if _, ok := kb2.Value("B"); ok {
		t.Error("deleted knowgget resurrected by replay")
	}
	if _, n, _ := m2.Recovered(); n != 3 {
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
	_, kb, _ := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.Put("B", "2")
	if err := Tear(dir, 3); err != nil { // chop mid-record, as a power cut would
		t.Fatalf("Tear: %v", err)
	}

	rec := telemetry.NewRegistry()
	met := Metrics{Recoveries: rec.CounterVec("kalis_persist_recoveries_total", "outcome", "recoveries by outcome")}
	m2, kb2, _ := openManager(t, dir, met)
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
	m3, kb3, _ := openManager(t, dir, Metrics{})
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
	m, kb, _ := openManager(t, dir, Metrics{})
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

	m2, kb2, _ := openManager(t, dir, Metrics{})
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
	m, kb, _ := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := os.WriteFile(JournalPath(dir), []byte("XXXX\x01garbage"), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}

	m2, kb2, _ := openManager(t, dir, Metrics{})
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
// of growing rotateBytes past its last whole write, and returns how many
// it put.
func fillJournal(t *testing.T, m *Manager, kb *knowledge.Base) int {
	t.Helper()
	threshold := m.base + rotateBytes
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
// interval, appends the window's new frames to the log and fsyncs it
// where it lies; a checkpoint — snapshot written, log rewritten as the
// window — happens at a sync point only once the log has grown
// rotateBytes, and at Stop.
func TestTickCompaction(t *testing.T) {
	dir := t.TempDir()
	met := syncMetrics()
	m, kb, store := openManager(t, dir, met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0) // seeds the clock
	kb.Put("A", "1")
	appendAll(t, store, windowFrames(t, 0, 5))
	journal := m.JournalBytes()
	if journal <= journalHeaderLen {
		t.Error("journal did not grow on put")
	}

	m.Tick(t0.Add(5 * time.Second)) // under the 10s interval
	wantCounters(t, met, "under the interval", 0, 0)
	if got := fileSize(t, JournalPath(dir)); got != journal || m.journal.synced != journalHeaderLen {
		t.Errorf("under the interval: log %d bytes, synced to %d: only the KB record should have been written", got, m.journal.synced)
	}

	m.Tick(t0.Add(11 * time.Second))
	if err := m.Err(); err != nil { // waits for the sync point
		t.Fatal(err)
	}
	wantCounters(t, met, "past the interval", 1, 0)
	if got := m.JournalBytes(); got <= journal || m.journal.synced != got || fileSize(t, JournalPath(dir)) != got {
		t.Errorf("sync point: log %d bytes (%d before), synced to %d: want the window's new frames appended and fsynced in place", got, journal, m.journal.synced)
	}
	if _, err := os.Stat(SnapshotPath(dir)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("sync point wrote a snapshot (stat: %v)", err)
	}

	fillJournal(t, m, kb)
	kb.PutEntity("SignalStrength", "0xffff", "-67") // the record that crosses the threshold
	m.Tick(t0.Add(22 * time.Second))
	wantCounters(t, met, "past rotateBytes", 2, 1)
	if got, want := m.JournalBytes(), fileSize(t, JournalPath(dir)); got != want || got >= rotateBytes/2 {
		t.Errorf("checkpoint did not rewrite the log as the window: %d bytes (%d on disk)", got, want)
	}
	if log, err := replayJournalFile(t, JournalPath(dir)); err != nil || len(log.entries) != 0 || len(log.window) != 5 {
		t.Errorf("checkpoint's log: %d KB records, %d window records (err %v), want the 5-frame window alone", len(log.entries), len(log.window), err)
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

	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	wantCounters(t, met, "Stop", 3, 2)
	if log, err := replayJournalFile(t, JournalPath(dir)); err != nil || len(log.entries) != 0 || len(log.window) != 5 {
		t.Errorf("a clean shutdown left a log of %d KB records and %d window records (err %v), want the window alone", len(log.entries), len(log.window), err)
	}
}

// replayJournalFile replays the log at path.
func replayJournalFile(t *testing.T, path string) (logContents, error) {
	t.Helper()
	_, log, err := loadJournalFile(path)
	return log, err
}

// TestQuietIntervalWritesNothing: a sync point with no new frame and no
// knowledge change issues no write — the two state files keep their
// size, mtime and inode over ten intervals, and neither counter moves.
func TestQuietIntervalWritesNothing(t *testing.T) {
	dir := t.TempDir()
	m, kb, store := openManager(t, dir, Metrics{})
	kb.Put("A", "1")
	kb.PutStatic("Mobility", "", "false")
	appendAll(t, store, windowFrames(t, 0, 5))
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	met := syncMetrics()
	m2, _, _ := openManager(t, dir, met)
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
// the sync point is there, nothing after it is, and the window holds
// each frame once.
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
			m, kb, store := openManager(t, dir, met)
			frames := windowFrames(t, 0, 30)
			t0 := time.Unix(1500000000, 0).UTC()
			m.Tick(t0)
			kb.Put("A", "1")
			kb.Put("B", "2")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())
			appendAll(t, store, frames[:20])
			m.Tick(t0.Add(11 * time.Second))
			if err := m.Err(); err != nil { // waits for the sync point
				t.Fatal(err)
			}
			wantCounters(t, met, "a sync point under the threshold", 1, 0)
			journal := m.journal.synced
			kb.Put("C", "3")
			kb.Put("B", "4")
			appendAll(t, store, frames[20:])
			m.Tick(t0.Add(15 * time.Second)) // under the interval: no sync point
			// Power cut: the manager is abandoned, the unsynced tails are gone.
			if err := os.Truncate(JournalPath(dir), journal+cut.extra); err != nil {
				t.Fatal(err)
			}

			m2, kb2, store2 := openManager(t, dir, Metrics{})
			if m2.Outcome() != cut.want {
				t.Fatalf("outcome = %s, want %s", m2.Outcome(), cut.want)
			}
			if got := kbMap(kb2); len(got) != 1 || got["K1$B"] != "2" {
				t.Errorf("recovered %v, want exactly what the sync point covered: B = 2", got)
			}
			sameWindow(t, store2, frames[:20])
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
	m, kb, _ := openManager(t, dir, met)
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

	m2, kb2, _ := openManager(t, dir, Metrics{})
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
// with every entry applied. The replay time it prints is what deferring
// the checkpoint costs the next Open (the benchmark's
// persist.recover_ms).
func TestFullJournalReplays(t *testing.T) {
	dir := t.TempDir()
	met := syncMetrics()
	m, kb, _ := openManager(t, dir, met)
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

	start := time.Now()
	log, err := replayJournalFile(t, JournalPath(dir))
	replay := time.Since(start)
	if err != nil || log.torn || log.good != size || len(log.entries) != n {
		t.Fatalf("replay: %d entries of %d, %d good bytes of %d, torn %v, err %v", len(log.entries), n, log.good, size, log.torn, err)
	}
	start = time.Now()
	m2, kb2, _ := openManager(t, dir, Metrics{})
	reopen := time.Since(start)
	t.Logf("journal of %d records, %d bytes: replayed in %v; Open, which keeps it, took %v", n, size, replay, reopen)
	if m2.Outcome() != OutcomeWarm {
		t.Fatalf("outcome = %s, want warm", m2.Outcome())
	}
	if _, replayed, _ := m2.Recovered(); replayed != n || kb2.Len() != n {
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
func TestStickyJournalError(t *testing.T) {
	t.Run("journal write", func(t *testing.T) {
		dir := t.TempDir()
		m, kb, _ := openManager(t, dir, Metrics{})
		m.mu.Lock()
		m.journal.f.Close() // sabotage the fd: subsequent flushes fail
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
		m, kb, store := openManager(t, t.TempDir(), met)
		frames := windowFrames(t, 0, 30)
		t0 := time.Unix(1500000000, 0).UTC()
		m.Tick(t0)
		kb.Put("A", "1")
		appendAll(t, store, frames[:20])
		failing.Store(true)
		m.Tick(t0.Add(11 * time.Second))
		first := m.Err()
		if !errors.Is(first, disk) {
			t.Fatalf("Err = %v, want the writer's fsync failure", first)
		}
		wantCounters(t, met, "a failed sync point", 0, 0)
		journal, calls := m.JournalBytes(), failed.Load()
		kb.Put("B", "2")
		appendAll(t, store, frames[20:])
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
// hands the sync point off and returns, frames and mutations keep being
// accepted, and a sync point that falls due meanwhile neither blocks
// nor starts a second batch. Opening the gate completes the sync point,
// which made durable what was accepted before its hand-off, and the
// first Tick after it runs the postponed one.
func TestSyncPointDoesNotWaitForTheDisk(t *testing.T) {
	gate := gateFsync(t)
	met := syncMetrics()
	m, kb, store := openManager(t, t.TempDir(), met)
	frames := windowFrames(t, 0, 40)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	kb.Put("A", "1")
	appendAll(t, store, frames[:20])
	journal := m.JournalBytes()

	gate.shut.Store(true)
	returnsSoon(t, "Tick at a sync point", func() { m.Tick(t0.Add(11 * time.Second)) })
	gate.waitHeld(t)
	kb.Put("B", "2")
	appendAll(t, store, frames[20:])
	if got := m.JournalBytes(); got <= journal || store.Kept() != 40 {
		t.Errorf("during the sync point: journal %d bytes (was %d), %d frames kept: mutations and frames must keep flowing", got, journal, store.Kept())
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
	if want := journal + int64(len(windowChunk(t, frames[:20]))); m.winSeq != 20 || m.journal.synced != want {
		t.Errorf("the sync point covered %d frames and %d log bytes, want what its hand-off saw and the chunk it appended: 20 and %d", m.winSeq, m.journal.synced, want)
	}

	m.Tick(t0.Add(34 * time.Second)) // the first Tick after it: the postponed sync point
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	wantCounters(t, met, "the postponed sync point", 2, 0)
	if m.winSeq != 40 || m.journal.synced != m.JournalBytes() {
		t.Errorf("the postponed sync point covered %d frames and %d of %d journal bytes", m.winSeq, m.journal.synced, m.JournalBytes())
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
// its writer held in its fsync after appending the window's chunk, and
// knowledge still changing: whatever no completed sync point fsynced may
// be lost. With the log cut back to where the previous sync point left
// it, recovery restores exactly what that sync point covered. When the
// kernel had flushed the chunk on its own, but not the KB records
// written behind it, the window comes back ahead of the knowledge.
func TestPowerCutDuringSync(t *testing.T) {
	for name, cut := range map[string]struct {
		window bool              // the log loses the chunk in flight too
		frames int               // the window after the restart
		kb     map[string]string // the Knowledge Base after the restart
	}{
		"both files cut":     {true, 20, map[string]string{"K1$A": "1", "K1$B": "2"}},
		"window log flushed": {false, 30, map[string]string{"K1$A": "1", "K1$B": "2"}},
	} {
		t.Run(name, func(t *testing.T) {
			gate := gateFsync(t)
			dir := t.TempDir()
			m, kb, store := openManager(t, dir, Metrics{})
			frames := windowFrames(t, 0, 30)
			t0 := time.Unix(1500000000, 0).UTC()
			m.Tick(t0)
			kb.Put("A", "1")
			kb.Put("B", "2")
			appendAll(t, store, frames[:20])
			m.Tick(t0.Add(11 * time.Second))
			if err := m.Err(); err != nil { // the sync point completes
				t.Fatal(err)
			}
			journal := m.journal.synced
			appendAll(t, store, frames[20:])
			gate.shut.Store(true)
			m.Tick(t0.Add(22 * time.Second))
			gate.waitHeld(t) // the chunk is written, its fsync is held
			chunk := fileSize(t, JournalPath(dir))
			kb.Put("C", "3")
			kb.Delete(knowledge.Knowgget{Creator: "K1", Label: "A"}.Key())

			cutDir := copyDir(t, dir)
			if chunk <= journal {
				t.Fatalf("the sync point in flight wrote no frame before its fsync: log %d bytes", chunk)
			}
			to := chunk
			if cut.window {
				to = journal
			}
			if err := os.Truncate(JournalPath(cutDir), to); err != nil {
				t.Fatal(err)
			}
			gate.open()
			m2, kb2, store2 := openManager(t, cutDir, Metrics{})
			if m2.Outcome() != OutcomeWarm {
				t.Fatalf("outcome = %s, want warm", m2.Outcome())
			}
			if got := kbMap(kb2); !maps.Equal(got, cut.kb) {
				t.Errorf("recovered %v, want what the completed sync point covered: %v", got, cut.kb)
			}
			sameWindow(t, store2, frames[:cut.frames])
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
	m, kb, _ := openManager(t, dir, Metrics{})
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
	journal := fileSize(t, JournalPath(dir))

	met := syncMetrics()
	m2, kb2, _ := openManager(t, dir, met)
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
	if got := m2.JournalBytes(); got != journal || fileSize(t, JournalPath(dir)) != journal {
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

	m3, kb3, _ := openManager(t, dir, Metrics{})
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
	if _, err := Open(Config{Dir: dir}, kb, datastore.New(8)); err == nil {
		t.Fatal("Open on a non-directory succeeded")
	}
}

// TestJournalReplayProperties pins replay edge cases directly.
func TestJournalReplayProperties(t *testing.T) {
	// Header only: clean empty journal.
	raw := append(append([]byte{}, JournalMagic[:]...), JournalVersion)
	log, err := replayJournal(bytes.NewReader(raw))
	if err != nil || log.torn || len(log.entries) != 0 || log.good != journalHeaderLen {
		t.Errorf("empty journal: %v %v %d %d", err, log.torn, len(log.entries), log.good)
	}
	// Short header: ErrJournalHeader.
	if _, err := replayJournal(bytes.NewReader(raw[:3])); !errors.Is(err, ErrJournalHeader) {
		t.Errorf("short header err = %v", err)
	}
	// Garbage after the header: torn at offset journalHeaderLen.
	bad := append(append([]byte{}, raw...), 0xff, 0xff, 0xff)
	log, err = replayJournal(bytes.NewReader(bad))
	if err != nil || !log.torn || len(log.entries) != 0 || log.good != journalHeaderLen {
		t.Errorf("garbage tail: %v %v %d %d", err, log.torn, len(log.entries), log.good)
	}
}

// TestSyncPointIsOneFsync counts the fsyncs of a sync point: the window's
// fresh frames and the KB records written since the last one share the
// log, so one fsync makes both durable — with frames and records, with
// records alone and with frames alone.
func TestSyncPointIsOneFsync(t *testing.T) {
	var calls atomic.Int32
	swapFsync(t, func(sync func(*os.File) error) func(*os.File) error {
		return func(f *os.File) error {
			calls.Add(1)
			return sync(f)
		}
	})
	met := syncMetrics()
	m, kb, store := openManager(t, t.TempDir(), met)
	frames := windowFrames(t, 0, 40)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	for i, step := range []struct {
		name    string
		records bool
		frames  []*packet.Captured
	}{
		{"frames and KB records", true, frames[:20]},
		{"KB records alone", true, nil},
		{"frames alone", false, frames[20:]},
	} {
		if step.records {
			kb.Put("A", fmt.Sprint(i))
			kb.Put("B", fmt.Sprint(i))
		}
		appendAll(t, store, step.frames)
		calls.Store(0)
		m.Tick(t0.Add(time.Duration(i+1) * 11 * time.Second))
		if err := m.Err(); err != nil {
			t.Fatal(err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("a sync point with %s made %d fsyncs, want 1", step.name, got)
		}
	}
	wantCounters(t, met, "three sync points", 3, 0)
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestRecordDuringSyncPoint runs KB mutations on one goroutine while
// sync points append the window's chunks to the same log on the writer
// (run it with -race): every record and every chunk lands whole, so the
// log replays clean, with every mutation once and every frame in order.
func TestRecordDuringSyncPoint(t *testing.T) {
	dir := t.TempDir()
	kb, store := knowledge.NewBase("K1"), datastore.New(4096)
	m, err := Open(Config{Dir: dir, Interval: time.Second}, kb, store)
	if err != nil {
		t.Fatal(err)
	}
	const puts = 2000
	frames := windowFrames(t, 0, 2000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range puts {
			kb.PutEntity("SignalStrength", fmt.Sprintf("0x%04x", i), "-67")
		}
	}()
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0)
	for i := 0; i < len(frames); i += 50 {
		appendAll(t, store, frames[i:i+50])
		m.Tick(t0.Add(time.Duration(i+50) * time.Second))
	}
	<-done
	if err := m.Err(); err != nil { // waits for the sync point in flight
		t.Fatal(err)
	}
	syncAt(t, m, t0.Add(time.Hour))
	// Crash: the manager is abandoned where it stands.

	log, err := replayJournalFile(t, JournalPath(dir))
	if err != nil || log.torn || log.good != fileSize(t, JournalPath(dir)) {
		t.Fatalf("replay: torn %v, %d good bytes of %d, err %v", log.torn, log.good, fileSize(t, JournalPath(dir)), err)
	}
	seen := make(map[string]int)
	for _, e := range log.entries {
		seen[e.Knowgget.Entity]++
	}
	if len(log.entries) != puts || len(seen) != puts {
		t.Errorf("the log holds %d KB records of %d distinct entities, want each of the %d once", len(log.entries), len(seen), puts)
	}
	m2, kb2, store2 := openManager(t, dir, Metrics{})
	if m2.Outcome() != OutcomeWarm || kb2.Len() != puts {
		t.Fatalf("restart: %s with %d knowggets, want warm with %d", m2.Outcome(), kb2.Len(), puts)
	}
	sameWindow(t, store2, frames[len(frames)-windowCapacity:])
	if err := m2.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}
