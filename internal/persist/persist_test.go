package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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

// TestWarmRestart is the core contract: a cleanly stopped node comes
// back warm with its full KB (separator-bearing keys included), static
// labels, and Data Store window.
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

// TestTickCompaction drives compaction from a virtual capture clock
// and checks the snapshot/journal rotation plus telemetry.
func TestTickCompaction(t *testing.T) {
	dir := t.TempDir()
	rec := telemetry.NewRegistry()
	met := Metrics{
		Snapshots:    rec.Counter("kalis_persist_snapshot_total", "snapshots written"),
		JournalBytes: rec.Gauge("kalis_persist_journal_bytes", "journal size"),
	}
	m, kb, _ := openManager(t, dir, met)
	t0 := time.Unix(1500000000, 0).UTC()
	m.Tick(t0) // seeds the clock
	kb.Put("A", "1")
	if m.JournalBytes() <= journalHeaderLen {
		t.Error("journal did not grow on put")
	}
	m.Tick(t0.Add(5 * time.Second)) // under the 10s interval
	if met.Snapshots.Value() != 0 {
		t.Error("compacted before the interval elapsed")
	}
	m.Tick(t0.Add(11 * time.Second))
	if met.Snapshots.Value() != 1 {
		t.Errorf("snapshots = %d, want 1", met.Snapshots.Value())
	}
	if m.JournalBytes() != journalHeaderLen {
		t.Errorf("journal not rotated: %d bytes", m.JournalBytes())
	}
	if _, err := os.Stat(SnapshotPath(dir)); err != nil {
		t.Errorf("snapshot missing: %v", err)
	}
	// A clock rewind (trace replay restart) re-bases, never compacts.
	m.Tick(t0)
	if met.Snapshots.Value() != 1 {
		t.Error("rewound clock triggered compaction")
	}
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if met.Snapshots.Value() != 2 {
		t.Errorf("Stop did not compact: %d", met.Snapshots.Value())
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

// TestStickyJournalError: once the journal fails, the manager reports
// the error and stops journaling instead of panicking.
func TestStickyJournalError(t *testing.T) {
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
	entries, n, torn, err := replayJournal(bytes.NewReader(raw))
	if err != nil || torn || len(entries) != 0 || n != journalHeaderLen {
		t.Errorf("empty journal: %v %v %d %d", err, torn, len(entries), n)
	}
	// Short header: ErrJournalHeader.
	if _, _, _, err := replayJournal(bytes.NewReader(raw[:3])); !errors.Is(err, ErrJournalHeader) {
		t.Errorf("short header err = %v", err)
	}
	// Garbage after the header: torn at offset journalHeaderLen.
	bad := append(append([]byte{}, raw...), 0xff, 0xff, 0xff)
	entries, n, torn, err = replayJournal(bytes.NewReader(bad))
	if err != nil || !torn || len(entries) != 0 || n != journalHeaderLen {
		t.Errorf("garbage tail: %v %v %d %d", err, torn, len(entries), n)
	}
}
