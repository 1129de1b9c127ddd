// Package persist is Kalis' crash-safe durable-state layer: a
// versioned binary snapshot of the Knowledge Base, an append-only
// write-ahead journal of every accepted KB mutation since, and an
// append-only log of the Data Store window. Each writes what changed:
// a sync point — once per interval of capture time — appends the frames
// that arrived and fsyncs both logs where they lie; a checkpoint, which
// rewrites the snapshot and empties the journal, waits until the
// journal has outgrown what folding it costs. A sync point runs on the
// manager's one writer goroutine: Tick only hands it off, so the
// goroutine that captures never waits for the disk. Together they give a
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
//     file there. Each record is written by the caller that made the
//     mutation, so a process crash loses nothing; a power cut keeps
//     every record accepted before the hand-off of the last completed
//     sync point.
//  3. The window log is append-only with per-frame checksums: a crash
//     mid-append loses at most what the sync point in flight is
//     writing, and its periodic rewrite is atomic by rule 1. The
//     writer fsyncs a sync point's window frames, then the journal,
//     and a checkpoint goes log, then snapshot, then journal rotation:
//     once a sync point completes, the disk holds every frame and
//     every mutation accepted before its hand-off, the frames made
//     durable first. A power cut loses at most what was accepted since
//     the hand-off of the last completed sync point, never an earlier
//     record.
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
// checkpoints, and below which Open appends to the journal it has
// recovered instead. A checkpoint costs about three sync points
// (snapshot rename, directory fsync and journal rotation on top of the
// two fsyncs), so it pays only once the journal is worth folding. What a
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

// fsync makes what was written to a file durable. Tests swap it for one
// that blocks or fails.
var fsync = (*os.File).Sync

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
	idle     sync.Cond // on mu: broadcast when a sync point completes
	journal  *journalWriter
	lastSync time.Time
	clockSet bool
	closed   bool
	busy     bool  // a sync point is in flight on the writer
	err      error // sticky first I/O failure

	// handoff carries a sync point from Tick to the writer goroutine;
	// busy keeps at most one in it or in flight, so a send never waits.
	// Stop closes it, and the writer sets it to nil as it exits.
	handoff chan syncPoint

	// snapStatics is how many static labels the snapshot on disk
	// carries: the one part of the KB the journal does not.
	snapStatics int

	// The window log: the file, held open for appends; how many
	// records it holds, and the Data Store's Kept count up to which
	// they were written; and the one buffer every copy of the window
	// goes through, a chunk at a time. The writer owns them while a
	// sync point is in flight, the holder of mu otherwise.
	win        *os.File
	winRecords int
	winSeq     uint64
	winBuf     bytes.Buffer

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
	m.idle.L = &m.mu
	m.handoff = make(chan syncPoint, 1)
	go m.writer()
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
		if err := m.rewriteWindow(m.store.Kept()); err != nil {
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

	// A verified journal under checkpointBytes is kept, and appended to:
	// it still holds every delta since the snapshot on disk. A longer
	// one, or a snapshot carrying the window section the log has just
	// taken over, is compacted into a fresh snapshot BEFORE the journal
	// is rotated: rotation truncates the journal, so the snapshot must
	// already hold the replayed deltas — a crash between the two steps
	// then loses nothing (same ordering argument as compactLocked).
	var keep int64
	if m.outcome != OutcomeCold {
		if snap != nil {
			m.snapStatics = len(snap.StaticLabels)
		}
		if carried || goodBytes >= checkpointBytes {
			if err := m.writeSnapshotLocked(); err != nil {
				return fmt.Errorf("persist: post-recovery snapshot: %w", err)
			}
		} else if jErr == nil {
			keep = goodBytes
		}
	}
	jw, err := openJournalWriter(JournalPath(m.dir), keep)
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
	// interval-bounded by the writer's fsync at each sync point.
	if err := m.journal.append(op, key, k); err != nil {
		m.err = fmt.Errorf("persist: journal append: %w", err)
		return
	}
	m.met.JournalBytes.Set(m.journal.bytes)
}

// Tick drives sync points from the capture clock: when now has
// advanced a full interval past the last one, everything accepted so
// far is handed to the writer to be made durable. Tick never waits for
// it: a sync point that falls due while the previous one is still in
// flight is postponed to the first Tick after that one completes. A
// clock that jumps backwards (trace replay restarting, bench loops)
// just re-bases the interval. The fast path is one lock and one time
// comparison per packet.
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
	if m.busy || now.Sub(m.lastSync) < m.interval {
		return
	}
	if err := m.syncLocked(); err != nil {
		m.err = err
		return
	}
	m.lastSync = now
}

// syncPoint is what Tick hands the writer: the Data Store's Kept count
// and the journal's length at the hand-off, which the sync point makes
// durable, and the journal to fsync — nil when an fsync covers it.
type syncPoint struct {
	kept    uint64
	journal *journalWriter
	bytes   int64
}

// syncLocked is one sync point: it hands everything accepted so far to
// the writer, which makes it durable where it already lies, and an
// interval in which no frame arrived and no knowledge changed hands off
// nothing. It is a checkpoint instead, run here, when the journal has
// outgrown checkpointBytes, or when the KB's static labels have grown
// (they are only ever added): the static mark of a label lives in the
// snapshot alone, and must not wait longer for the disk than the
// knowgget it marks.
func (m *Manager) syncLocked() error {
	statics := m.kb.StaticCount() > m.snapStatics
	kept, jw := m.store.Kept(), m.journal
	if !statics && kept == m.winSeq && jw.synced == jw.bytes {
		return nil
	}
	if statics || jw.bytes >= checkpointBytes {
		if err := m.compactLocked(); err != nil {
			return err
		}
		m.met.Syncs.Inc()
		return nil
	}
	sp := syncPoint{kept: kept, bytes: jw.bytes}
	if jw.synced != jw.bytes {
		sp.journal = jw
	}
	m.busy = true
	m.handoff <- sp
	return nil
}

// writer is the manager's one writer goroutine, from Open until Stop
// closes handoff. It
// runs the sync points Tick hands off, one at a time: the window's
// frames up to the hand-off are appended and fsynced first, then the
// journal, which covers at least its length at the hand-off. The first
// failure is sticky, and no sync point is handed off after it.
func (m *Manager) writer() {
	for sp := range m.handoff {
		err := m.logWindow(sp.kept)
		if err == nil && sp.journal != nil {
			if err = fsync(sp.journal.f); err != nil {
				err = fmt.Errorf("persist: journal sync: %w", err)
			}
		}
		m.mu.Lock()
		switch {
		case err == nil:
			if sp.journal != nil {
				sp.journal.synced = sp.bytes
			}
			m.met.Syncs.Inc()
		case m.err == nil:
			m.err = err
		}
		m.busy = false
		m.idle.Broadcast()
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.handoff = nil
	m.idle.Broadcast()
	m.mu.Unlock()
}

// waitLocked waits, on mu, until no sync point is in flight.
func (m *Manager) waitLocked() {
	for m.busy {
		m.idle.Wait()
	}
}

// Compact forces one checkpoint immediately, after any sync point in
// flight.
func (m *Manager) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waitLocked()
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
	if err := m.logWindow(m.store.Kept()); err != nil {
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
	if err := fsync(f); err != nil {
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
	err = fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stop waits for any sync point in flight and ends the writer, then
// flushes everything: one final checkpoint (so a clean shutdown always
// restarts warm with an empty journal) and a synced, closed journal.
// The manager journals nothing afterwards.
func (m *Manager) Stop() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waitLocked()
	if m.closed {
		return m.err
	}
	m.closed = true
	close(m.handoff)
	for m.handoff != nil {
		m.idle.Wait() // until the writer has exited
	}
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

// Err waits for any sync point in flight, then returns the sticky first
// I/O failure, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waitLocked()
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
