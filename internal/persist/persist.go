// Package persist is Kalis' crash-safe durable-state layer: a
// versioned binary snapshot of the Knowledge Base, an append-only
// write-ahead journal of every accepted KB mutation since, and an
// append-only log of the Data Store window. Each writes what changed:
// a sync point — once per interval of capture time — appends the frames
// that arrived and fsyncs both logs where they lie; a checkpoint, which
// rewrites the snapshot and empties the journal, waits until the
// journal has outgrown what folding it costs. Together they give a
// production node what fault.CrashNode only pretended it had — a warm
// restart: a node rebooted from its state directory comes back with the
// knowledge it had collectively and locally learned, instead of
// re-learning the network from nothing while an attack is in progress
// (HADES-IoT applies the same persisted-whitelist requirement to
// host-based IoT detection).
//
// Crash-safety argument, in four invariants:
//
//  1. Snapshots are atomic: written to a temp file, fsynced, then
//     renamed over the previous snapshot (and the directory fsynced).
//     A crash mid-write leaves either the old snapshot or the new one,
//     never a loadable-but-corrupt hybrid; every section additionally
//     carries a CRC32 so bit rot is caught on load.
//  2. The journal is append-only with per-record checksums: a crash
//     mid-append loses at most the record being written. Replay stops
//     at the first torn or checksum-failing record and truncates the
//     file there.
//  3. The window log is append-only with per-batch checksums: a crash
//     mid-append loses at most the batch being written, and its
//     periodic rewrite is atomic by rule 1. Every sync point fsyncs
//     the window log, then the journal, and a checkpoint goes log,
//     then snapshot, then journal rotation, so the window on disk is
//     never behind the knowledge on disk and a power cut loses at most
//     the last interval of either file, never an earlier record.
//  4. Recovery validates everything before applying anything: the
//     snapshot and the verified prefixes of the journal and the window
//     log are fully decoded first, then installed into the KB/Data
//     Store in one step — a corrupt input can never leave a
//     partially-applied KB.
//
// The recovery decision ladder (see DESIGN.md §9): intact snapshot,
// clean journal and clean window log → warm; a torn journal or
// window-log tail, or an unreadable journal or window-log header
// beside an intact snapshot → truncated, the verified prefix applies;
// missing or corrupt snapshot → cold, prior files are archived aside
// and the node starts from nothing.
package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/telemetry"
	"kalis/internal/trace"
)

// Outcome classifies one recovery, as exported on
// kalis_persist_recoveries_total{outcome=...}.
type Outcome string

// Recovery outcomes, from best to worst.
const (
	// OutcomeWarm means the snapshot and journal verified completely.
	OutcomeWarm Outcome = "warm"
	// OutcomeTruncated means recovery succeeded from the verified
	// prefix: a torn or corrupt journal tail was truncated.
	OutcomeTruncated Outcome = "truncated"
	// OutcomeCold means no usable prior state: nothing on disk, or a
	// snapshot that failed verification (archived aside, never
	// partially applied).
	OutcomeCold Outcome = "cold"
)

// DefaultInterval is the default time between sync points on the
// capture clock.
const DefaultInterval = 30 * time.Second

// checkpointBytes is the journal size past which a sync point also
// checkpoints. A checkpoint costs about three sync points (snapshot
// rename, directory fsync and journal rotation on top of the two
// fsyncs), so it pays only once the journal is worth folding. What a
// longer journal costs is replay at the next Open: at this size that is
// ≈ 1 800 records and ≈ 0.5 ms (TestFullJournalReplays prints it), less
// than Open spends on its own fsyncs.
const checkpointBytes = 64 << 10

// Metrics are the persistence layer's optional telemetry hooks; all
// telemetry types are nil-safe, so the zero value disables them.
type Metrics struct {
	// Snapshots counts checkpoints written: journal past its threshold,
	// new static knowledge, Compact, shutdown
	// (kalis_persist_snapshot_total).
	Snapshots *telemetry.Counter
	// Syncs counts sync points that had something to make durable
	// (kalis_persist_sync_total).
	Syncs *telemetry.Counter
	// JournalBytes tracks the current journal size in bytes
	// (kalis_persist_journal_bytes).
	JournalBytes *telemetry.Gauge
	// Recoveries counts recoveries by outcome
	// (kalis_persist_recoveries_total{outcome=warm|cold|truncated}).
	Recoveries *telemetry.CounterVec
}

// Config configures a Manager.
type Config struct {
	// Dir is the node's state directory; created if absent.
	Dir string
	// Interval is the capture time between sync points, which is the
	// most a power cut can lose; 0 selects DefaultInterval.
	Interval time.Duration
	// Metrics are the telemetry hooks.
	Metrics Metrics
}

// SnapshotPath returns the snapshot file path inside a state dir.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.ksnp") }

// JournalPath returns the journal file path inside a state dir.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.kjnl") }

// Manager owns one node's durable state: it recovers it at Open,
// journals every accepted KB mutation, makes journal and window log
// durable at a sync point on the capture clock, compacts the journal
// into a fresh snapshot when it has grown, and flushes everything at
// Stop.
type Manager struct {
	dir      string
	interval time.Duration
	kb       *knowledge.Base
	store    *datastore.Store
	met      Metrics

	mu       sync.Mutex
	journal  *journalWriter
	lastSync time.Time
	clockSet bool
	closed   bool
	err      error // sticky first I/O failure

	// snapStatics is how many static labels the snapshot on disk
	// carries: the one part of the KB the journal does not.
	snapStatics int

	// The window log: the file, held open for appends; how many
	// records it holds, and the Data Store's Kept count up to which
	// they were written; the buffers a sync point copies its batch
	// and that batch's frame into; and the length of the last rewrite's
	// batch.
	win           *os.File
	winRecords    int
	winSeq        uint64
	winBatch      bytes.Buffer
	winFrame      []byte
	winRewriteLen int

	outcome   Outcome
	recovered int // knowggets restored from the snapshot+journal
	replayed  int // journal entries applied on top of the snapshot
	window    int // window records restored
}

// Open recovers any prior state from cfg.Dir into kb and store,
// installs the KB write-ahead hook, and returns the manager. Open
// must run before modules are installed and before traffic flows:
// recovery bulk-loads the KB without firing subscribers.
//
// Open never fails on corrupt state — that is the point of the
// recovery ladder — only on environmental errors (unwritable
// directory, fsync failures).
func Open(cfg Config, kb *knowledge.Base, store *datastore.Store) (*Manager, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: state dir: %w", err)
	}
	m := &Manager{
		dir:      cfg.Dir,
		interval: cfg.Interval,
		kb:       kb,
		store:    store,
		met:      cfg.Metrics,
	}
	if err := m.recover(); err != nil {
		_ = m.closeWindowLog() // the error being returned is the one to report
		return nil, err
	}
	m.met.Recoveries.With(string(m.outcome)).Inc()
	m.met.JournalBytes.Set(m.journalBytesLocked())
	kb.SetJournal(m.record)
	return m, nil
}

// recover runs the decision ladder and leaves an append-ready journal
// and window log.
func (m *Manager) recover() error {
	snap, snapErr := loadSnapshotFile(SnapshotPath(m.dir))
	entries, goodBytes, torn, jErr := loadJournalFile(JournalPath(m.dir))
	logged, winBytes, winTorn, wErr := loadWindowLogFile(WindowLogPath(m.dir))
	// A crash mid-rewrite leaves the rewrite's temp file beside the log
	// it was to replace; the log is whole, the temp file is nothing.
	_ = os.Remove(WindowLogPath(m.dir) + ".tmp")
	if wErr != nil {
		// Window-log header unreadable: the window is lost wholesale.
		// The Knowledge Base does not depend on it and still applies.
		archiveCorrupt(WindowLogPath(m.dir))
	}

	switch {
	case snapErr == nil && snap == nil && jErr == nil && entries == nil && !torn && goodBytes == 0:
		// No snapshot and no journal: a brand-new node.
		m.outcome = OutcomeCold
	case snapErr != nil:
		// A snapshot existed but failed verification. Journal deltas
		// without their base state must not be applied either: archive
		// both and start cold — never a partial load.
		m.outcome = OutcomeCold
		archiveCorrupt(SnapshotPath(m.dir))
		archiveCorrupt(JournalPath(m.dir))
	case jErr != nil:
		// Journal header unreadable: its deltas are lost wholesale.
		// With a verified snapshot the base state still applies
		// (truncated-warm); without one this is a cold start.
		archiveCorrupt(JournalPath(m.dir))
		if snap != nil {
			m.outcome = OutcomeTruncated
			if err := m.apply(snap, nil, logged); err != nil {
				m.outcome = OutcomeCold
				archiveCorrupt(SnapshotPath(m.dir))
			}
		} else {
			m.outcome = OutcomeCold
		}
	default:
		// Base state (possibly absent) plus a verified journal prefix.
		if err := m.apply(snap, entries, logged); err != nil {
			m.outcome = OutcomeCold
			archiveCorrupt(SnapshotPath(m.dir))
			archiveCorrupt(JournalPath(m.dir))
		} else if torn {
			m.outcome = OutcomeTruncated
			if err := os.Truncate(JournalPath(m.dir), goodBytes); err != nil {
				return fmt.Errorf("persist: truncate torn journal: %w", err)
			}
		} else if snap == nil && entries == nil && goodBytes <= journalHeaderLen {
			m.outcome = OutcomeCold
		} else {
			m.outcome = OutcomeWarm
		}
	}
	if m.outcome == OutcomeWarm && (winTorn || wErr != nil) {
		m.outcome = OutcomeTruncated
	}

	// Leave the window log holding what the window now holds. A verified
	// log that was the window's only source already does, once a torn
	// tail is cut off; otherwise — no log yet or a lost one (no verified
	// byte of it), a cold start, or a window that came out of an older
	// snapshot's Data Store section — it is rewritten from the window.
	// Like every checkpoint, this goes log, then snapshot, then journal
	// rotation: the snapshot below drops that section, so its frames
	// must be in the log first.
	carried := snap != nil && len(snap.WindowTrace) > 0
	if m.outcome == OutcomeCold || winBytes == 0 || carried {
		if err := m.rewriteWindowLocked(); err != nil {
			return err
		}
	} else {
		if winTorn {
			if err := os.Truncate(WindowLogPath(m.dir), winBytes); err != nil {
				return fmt.Errorf("persist: truncate torn window log: %w", err)
			}
		}
		m.winRecords, m.winSeq = len(logged), m.store.Kept()
		if err := m.openWindowLog(); err != nil {
			return err
		}
	}

	// Compact the recovered state into a fresh snapshot BEFORE the
	// journal is rotated: rotation truncates the journal, so the
	// snapshot must already hold the replayed deltas — a crash between
	// the two steps then loses nothing (same ordering argument as
	// compactLocked, in reverse direction).
	if m.outcome != OutcomeCold {
		if err := m.writeSnapshotLocked(); err != nil {
			return fmt.Errorf("persist: post-recovery snapshot: %w", err)
		}
	}
	jw, err := newJournalWriter(JournalPath(m.dir))
	if err != nil {
		return fmt.Errorf("persist: journal: %w", err)
	}
	m.journal = jw
	return nil
}

// openState opens a state file for reading; (nil, nil) means it does
// not exist.
func openState(path string) (*os.File, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return f, err
}

// loadSnapshotFile reads and fully verifies the snapshot. (nil, nil)
// means no snapshot exists; an error means one exists but is unusable.
func loadSnapshotFile(path string) (*Snapshot, error) {
	f, err := openState(path)
	if f == nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f)
}

// loadJournalFile replays the journal. All-nil/zero returns mean no
// journal exists; jErr non-nil means the header itself is bad.
func loadJournalFile(path string) (entries []JournalEntry, goodBytes int64, torn bool, jErr error) {
	f, err := openState(path)
	if f == nil {
		return nil, 0, false, err
	}
	defer f.Close()
	return replayJournal(f)
}

// apply validates the full recovered state and installs it into the
// KB and the Data Store in one step. Any decode failure aborts before
// the KB is touched. logged is the window log's verified prefix.
func (m *Manager) apply(snap *Snapshot, entries []JournalEntry, logged []*trace.Record) error {
	var recs []*trace.Record
	var statics []string
	state := make(map[string]knowledge.Knowgget)
	if snap != nil {
		if len(snap.WindowTrace) > 0 {
			// Compatibility: a snapshot written before the window log
			// carries the window itself; whatever the log holds is newer.
			var err error
			recs, err = trace.ReadAll(bytes.NewReader(snap.WindowTrace))
			if err != nil {
				return fmt.Errorf("persist: window trace: %w", err)
			}
		}
		for _, k := range snap.Knowggets {
			state[k.Key()] = k
		}
		statics = snap.StaticLabels
	}
	// A crash in the restart that moves such a section into the log —
	// after the log's rename, before the snapshot's — leaves the same
	// frames in both: no record is restored twice.
	recs = append(recs[:len(recs)-overlap(recs, logged)], logged...)
	if over := len(recs) - m.store.Capacity(); over > 0 {
		recs = recs[over:] // the log may hold two windows' worth
	}
	for _, e := range entries {
		switch e.Op {
		case knowledge.OpPut:
			state[e.Knowgget.Key()] = e.Knowgget
		case knowledge.OpDelete:
			delete(state, e.Key)
		}
	}
	// Everything decoded — apply.
	ks := make([]knowledge.Knowgget, 0, len(state))
	for _, k := range state {
		ks = append(ks, k)
	}
	m.kb.Restore(ks, statics)
	m.recovered = len(ks)
	m.replayed = len(entries)
	m.window, _ = m.store.Restore(recs)
	return nil
}

// overlap is the number of records at the end of older that newer
// begins with.
func overlap(older, newer []*trace.Record) int {
	same := func(a, b *trace.Record) bool {
		return a.Time.Equal(b.Time) && a.Medium == b.Medium && a.RSSI == b.RSSI && bytes.Equal(a.Raw, b.Raw)
	}
next:
	for n := min(len(older), len(newer)); n > 0; n-- {
		for i, rec := range older[len(older)-n:] {
			if !same(rec, newer[i]) {
				continue next
			}
		}
		return n
	}
	return 0
}

// archiveCorrupt moves a failed state file aside (path → path.corrupt)
// so post-mortems can inspect it; the node itself starts cold. A
// missing file or a failed rename simply leaves nothing to archive.
func archiveCorrupt(path string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	// Best-effort: recovery proceeds cold whether or not this worked.
	_ = os.Rename(path, path+".corrupt")
}

// record is the KB write-ahead hook: it appends one accepted mutation
// to the journal. Failures are sticky — the first I/O error disables
// journaling and is reported by Err and Stop.
func (m *Manager) record(op byte, key string, k knowledge.Knowgget) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.err != nil || m.journal == nil {
		return
	}
	// One write(2) per record. KB mutations are change-gated but not
	// rare — a routing trace changes the KB once every three to four
	// frames — and a record buffered in the process would die with it:
	// the write is what makes "lose at most the record being written"
	// hold across a process crash. Durability against power loss is
	// interval-bounded by the fsync at each sync point.
	if err := m.journal.append(op, key, k); err != nil {
		m.err = fmt.Errorf("persist: journal append: %w", err)
		return
	}
	m.met.JournalBytes.Set(m.journal.bytes)
}

// Tick drives sync points from the capture clock: when now has
// advanced a full interval past the last one, everything accepted so
// far is made durable. A clock that jumps backwards (trace replay
// restarting, bench loops) just re-bases the interval. The fast path
// is one lock and one time comparison per packet.
func (m *Manager) Tick(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.err != nil {
		return
	}
	if !m.clockSet || now.Before(m.lastSync) {
		m.lastSync = now
		m.clockSet = true
		return
	}
	if now.Sub(m.lastSync) < m.interval {
		return
	}
	if err := m.syncLocked(); err != nil {
		m.err = err
		return
	}
	m.lastSync = now
}

// syncLocked is one sync point: it makes everything accepted so far
// durable where it already lies — the window's new frames appended and
// fsynced first, so the window on disk is never behind the knowledge on
// disk, then the open journal fsynced — and an interval in which no
// frame arrived and no knowledge changed issues no syscall. It becomes
// a checkpoint when the journal has outgrown checkpointBytes, or when
// the KB's static labels have grown (they are only ever added): the
// static mark of a label lives in the snapshot alone, and must not wait
// longer for the disk than the knowgget it marks.
func (m *Manager) syncLocked() error {
	statics := m.kb.StaticCount() > m.snapStatics
	if !statics && m.store.Kept() == m.winSeq && m.journal.synced == m.journal.bytes {
		return nil
	}
	if statics || m.journal.bytes >= checkpointBytes {
		if err := m.compactLocked(); err != nil {
			return err
		}
	} else {
		if err := m.logWindowLocked(); err != nil {
			return err
		}
		if err := m.journal.sync(); err != nil {
			return fmt.Errorf("persist: journal sync: %w", err)
		}
	}
	m.met.Syncs.Inc()
	return nil
}

// Compact forces one checkpoint immediately.
func (m *Manager) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("persist: closed")
	}
	if m.err != nil {
		return m.err
	}
	if err := m.compactLocked(); err != nil {
		m.err = err
		return err
	}
	return nil
}

// compactLocked is one checkpoint: it logs the window's new frames,
// snapshots the current KB atomically, then rotates the journal.
// Ordering is the crash-safety argument: each step is durable before
// the next begins. The snapshot is in place (fsync + rename + dir
// fsync) before the journal is reset, so a crash between the two
// replays journal records whose effects the snapshot already holds —
// puts are idempotent and deletes of absent keys are no-ops. The window
// log is fsynced before the snapshot is renamed, so a crash between
// those two finds a window newer than the snapshot and a journal that
// still holds every delta since: nothing is lost and, the log being the
// window's only home, nothing is restored twice.
func (m *Manager) compactLocked() error {
	if err := m.logWindowLocked(); err != nil {
		return err
	}
	if err := m.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := m.journal.close(); err != nil {
		return fmt.Errorf("persist: journal rotate: %w", err)
	}
	jw, err := newJournalWriter(JournalPath(m.dir))
	if err != nil {
		return fmt.Errorf("persist: journal rotate: %w", err)
	}
	m.journal = jw
	m.met.Snapshots.Inc()
	m.met.JournalBytes.Set(jw.bytes)
	return nil
}

// writeSnapshotLocked writes the Knowledge Base snapshot. The Data
// Store window is not part of it: the window log holds that.
func (m *Manager) writeSnapshotLocked() error {
	snap := &Snapshot{
		Knowggets:    m.kb.Snapshot(),
		StaticLabels: m.kb.StaticLabels(),
	}
	err := replaceFile(SnapshotPath(m.dir), func(w io.Writer) error { return EncodeSnapshot(w, snap) })
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	m.snapStatics = len(snap.StaticLabels)
	return nil
}

// replaceFile replaces path atomically with what write produces: temp
// file, fsync, rename over path, directory fsync. A crash at any point
// leaves the old file or the new one, never a mixture.
func replaceFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("temp: %w", err)
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("state dir fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs the directory so the rename itself is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stop flushes everything: one final checkpoint (so a clean shutdown
// always restarts warm with an empty journal) and a synced, closed
// journal. The manager journals nothing afterwards.
func (m *Manager) Stop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.err
	}
	m.closed = true
	err := m.err
	if err == nil {
		err = m.compactLocked()
	}
	if m.journal != nil {
		if cerr := m.journal.close(); err == nil {
			err = cerr
		}
		m.journal = nil
	}
	if cerr := m.closeWindowLog(); err == nil && cerr != nil {
		err = fmt.Errorf("persist: window log: %w", cerr)
	}
	return err
}

// Outcome reports how the last recovery classified (warm, truncated,
// cold).
func (m *Manager) Outcome() Outcome { return m.outcome }

// Recovered reports the recovery volume: knowggets restored into the
// KB, journal entries applied on top of the snapshot, and window
// records restored into the Data Store.
func (m *Manager) Recovered() (knowggets, journalEntries, windowRecords int) {
	return m.recovered, m.replayed, m.window
}

// Err returns the sticky first I/O failure, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// JournalBytes returns the current journal size in bytes.
func (m *Manager) JournalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalBytesLocked()
}

func (m *Manager) journalBytesLocked() int64 {
	if m.journal == nil {
		return 0
	}
	return m.journal.bytes
}

// Tear simulates a power loss mid-journal-write for chaos drills: it
// flushes nothing and chops the given number of bytes off the journal
// file's tail, leaving a torn final record exactly as a crash during
// an append would. It is invoked by fault.CrashNodeDirty's dirty hook.
func Tear(dir string, dropBytes int64) error {
	return tearFile(JournalPath(dir), dropBytes)
}

func tearFile(path string, dropBytes int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, max(info.Size()-dropBytes, 0))
}
