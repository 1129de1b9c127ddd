// Package persist is Kalis' crash-safe durable-state layer. A state
// dir holds two files: a versioned binary snapshot of the Knowledge
// Base, and an append-only log of checksummed frames, one for every
// accepted KB mutation since the snapshot. That is knowledge only: the
// Data Store window stays in memory, and a restarted node's window
// starts empty. Each file writes what changed: a sync point — once per
// interval of capture time — makes the log durable where it lies with
// one fsync; a checkpoint, which rewrites the snapshot and then the log
// as its header, waits until the log has grown enough to be worth
// folding. A sync point runs on the manager's one writer goroutine:
// Tick only hands it off, so the goroutine that captures never waits
// for the disk. The log is written through a shared mapping of its
// file, preallocated ahead of its logical end: a record is appended by
// copying it into the mapping, and a sync point's fsync writes back the
// pages the copies dirtied. Together they give a production node what
// fault.CrashNode only pretended it had — a warm restart: a node
// rebooted from its state directory comes back with the knowledge it
// had collectively and locally learned, instead of re-learning the
// network from nothing while an attack is in progress (HADES-IoT
// applies the same persisted-whitelist requirement to host-based IoT
// detection).
//
// Crash-safety argument, in four invariants:
//
//  1. Snapshots are atomic: written to a temp file, fsynced, then
//     renamed over the previous snapshot (and the directory fsynced).
//     A crash mid-write leaves either the old snapshot or the new one,
//     never a loadable-but-corrupt hybrid; every section additionally
//     carries a CRC32 so bit rot is caught on load.
//  2. The log is append-only with per-frame checksums: a crash
//     mid-append loses at most the record being written. Replay stops
//     at the first torn or checksum-failing frame and truncates the
//     file there; a frame boundary followed by nothing but zeros — the
//     preallocated tail — is a clean end. Each KB record is written by
//     the caller that made the mutation, into the shared mapping, where
//     it is in the kernel's page cache as the copy ends, so a process
//     crash loses none. A power cut keeps every record accepted before
//     the hand-off of the last completed sync point, and loses at most
//     what was accepted since.
//  3. A checkpoint goes snapshot, then log, each by rule 1's atomic
//     replace: the log is rewritten as its header once the snapshot
//     holds every KB record the log held. A crash between the two
//     replays the old log on the new snapshot — puts are idempotent and
//     deletes of absent keys no-ops.
//  4. Recovery validates everything before applying anything: the
//     snapshot and the verified prefix of the log are fully decoded
//     first, then installed into the KB in one step — a corrupt input
//     can never leave a partially-applied KB.
//
// The recovery decision ladder (see DESIGN.md §9): intact snapshot and
// clean log → warm; a torn log tail, or an unreadable log header beside
// an intact snapshot → truncated, the verified prefix applies; missing
// or corrupt snapshot → cold, prior files are archived aside and the
// node starts from nothing. State dirs written before the window left
// them are read, not migrated: replay skips the log's window frames,
// the snapshot decoder its window section, and a window.kwin is never
// opened; the next checkpoint writes a log without them.
package persist

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/telemetry"
)

// Outcome classifies one recovery, as exported on
// kalis_persist_recoveries_total{outcome=...}.
type Outcome string

// Recovery outcomes, from best to worst.
const (
	// OutcomeWarm means the snapshot and log verified completely.
	OutcomeWarm Outcome = "warm"
	// OutcomeTruncated means recovery succeeded from the verified
	// prefix: a torn or corrupt log tail was truncated.
	OutcomeTruncated Outcome = "truncated"
	// OutcomeCold means no usable prior state: nothing on disk, or a
	// snapshot that failed verification (archived aside, never
	// partially applied).
	OutcomeCold Outcome = "cold"
)

// DefaultInterval is the default time between sync points on the
// capture clock.
const DefaultInterval = 30 * time.Second

// rotateBytes is how far the log grows past its header before a
// checkpoint folds it into the snapshot, and how much it may hold for
// Open to keep appending to it: KB records, whose replay the next Open
// pays. A log that size holds ≈ 14 500 records, which the next Open
// replays in ≈ 8 ms (TestFullJournalReplays prints it); a routing
// trace, which changes the KB ≈ 56 times per 1 000 frames, takes
// ≈ 260 000 frames to write it.
const rotateBytes = 512 << 10

// Metrics are the persistence layer's optional telemetry hooks; all
// telemetry types are nil-safe, so the zero value disables them.
type Metrics struct {
	// Snapshots counts checkpoints written: log past its threshold,
	// new static knowledge, Compact, shutdown
	// (kalis_persist_snapshot_total).
	Snapshots *telemetry.Counter
	// Syncs counts sync points that had something to make durable
	// (kalis_persist_sync_total).
	Syncs *telemetry.Counter
	// JournalBytes tracks the log's logical size in bytes, its header
	// and KB records — not the file's preallocated length
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

// JournalPath returns the log file path inside a state dir.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.kjnl") }

// fsync makes what was written to a file durable. Tests swap it for one
// that blocks or fails.
var fsync = (*os.File).Sync

// Manager owns one node's durable state: it recovers it at Open, logs
// every accepted KB mutation, makes the log durable at a sync point on
// the capture clock, checkpoints when the log has grown, and flushes
// everything at Stop.
type Manager struct {
	dir      string
	interval time.Duration
	kb       *knowledge.Base
	met      Metrics

	// lastSync is the capture time of the last sync point, in Unix
	// nanoseconds, or noSync before the first Tick: Tick reads it
	// without mu, and takes mu only once an interval has passed since,
	// or the clock has gone back. Only the holder of mu stores it.
	lastSync atomic.Int64

	mu      sync.Mutex
	idle    sync.Cond // on mu: broadcast when a sync point completes
	journal *journalWriter
	closed  bool
	busy    bool  // a sync point is in flight on the writer
	err     error // sticky first I/O failure

	// handoff carries a sync point — the log it makes durable — from
	// Tick to the writer goroutine; busy keeps at most one in it or in
	// flight, so a send never waits. Stop closes it, and the writer sets
	// it to nil as it exits.
	handoff chan *journalWriter

	// snapStatics is how many static labels the snapshot on disk
	// carries: the one part of the KB the log does not.
	snapStatics int

	// snapCurrent is set when the snapshot on disk holds the KB as it
	// was when the log was last written as its header: by a checkpoint,
	// and by a recovery that found the log holding its header alone
	// and a snapshot with no section a checkpoint would drop.
	// With nothing appended to the log since and no new static label, a
	// checkpoint would write what is on disk already (see onDisk).
	snapCurrent bool

	outcome   Outcome
	recovered int // knowggets restored from the snapshot+log
	replayed  int // log entries applied on top of the snapshot
}

// Open recovers any prior state from cfg.Dir into kb, installs the KB
// write-ahead hook, and returns the manager. Open must run before
// modules are installed and before traffic flows: recovery bulk-loads
// the KB without firing subscribers.
//
// Open never fails on corrupt state — that is the point of the
// recovery ladder — only on environmental errors (unwritable
// directory, fsync failures).
func Open(cfg Config, kb *knowledge.Base) (*Manager, error) {
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
		met:      cfg.Metrics,
	}
	if err := m.recover(); err != nil {
		if m.journal != nil {
			m.journal.release() // the error being returned is the one to report
		}
		return nil, err
	}
	m.met.Recoveries.With(string(m.outcome)).Inc()
	m.met.JournalBytes.Set(m.journalBytesLocked())
	kb.SetJournal(m.record)
	m.lastSync.Store(noSync)
	m.idle.L = &m.mu
	m.handoff = make(chan *journalWriter, 1)
	go m.writer()
	return m, nil
}

// recover runs the decision ladder and leaves an append-ready log.
func (m *Manager) recover() error {
	snap, snapErr := loadSnapshotFile(SnapshotPath(m.dir))
	log, jErr := loadJournalFile(JournalPath(m.dir))
	// A crash mid-replace leaves the temp file beside the log it was to
	// replace; the log is whole, the temp file is nothing.
	_ = os.Remove(JournalPath(m.dir) + ".tmp")

	switch {
	case snapErr != nil:
		// A snapshot existed but failed verification. Log deltas
		// without their base state must not be applied either: archive
		// everything and start cold — never a partial load.
		m.outcome = OutcomeCold
		archiveCorrupt(SnapshotPath(m.dir))
		archiveCorrupt(JournalPath(m.dir))
	case jErr != nil:
		// Log header unreadable: its deltas are lost wholesale. With a
		// verified snapshot the base state still applies
		// (truncated-warm); without one this is a cold start.
		archiveCorrupt(JournalPath(m.dir))
		m.outcome = OutcomeCold
		if snap != nil {
			m.outcome = OutcomeTruncated
			m.apply(snap, logContents{})
		}
	default:
		// Base state (possibly absent) plus a verified log prefix.
		m.apply(snap, log)
		switch {
		case log.torn:
			m.outcome = OutcomeTruncated
			if err := os.Truncate(JournalPath(m.dir), log.good); err != nil {
				return fmt.Errorf("persist: truncate torn log: %w", err)
			}
		case snap == nil && len(log.entries) == 0:
			m.outcome = OutcomeCold
		default:
			m.outcome = OutcomeWarm
		}
	}
	if m.outcome != OutcomeCold && snap != nil {
		m.snapStatics = len(snap.StaticLabels)
	}

	// Leave the log append-ready. A missing or lost log is written
	// afresh. A verified log is kept and appended to, unless it holds
	// rotateBytes or more — then it is checkpointed.
	var err error
	switch {
	case m.outcome == OutcomeCold || jErr != nil || log.good == 0:
		err = m.writeLog()
	case log.good-journalHeaderLen < rotateBytes:
		m.journal, err = openJournalWriter(JournalPath(m.dir), log.good, 0)
		m.snapCurrent = snap != nil && !snap.skipped && log.good == journalHeaderLen
	default:
		err = m.compactLocked()
	}
	if err != nil {
		return fmt.Errorf("persist: recovery: %w", err)
	}
	return nil
}

// loadSnapshotFile reads and fully verifies the snapshot. (nil, nil)
// means no snapshot exists; an error means one exists but is unusable.
func loadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f)
}

// loadJournalFile reads the log and replays it, returning its verified
// prefix decoded. A missing log is an empty one with no verified byte;
// an error means the header itself is bad.
func loadJournalFile(path string) (logContents, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return logContents{}, nil
	}
	if err != nil {
		return logContents{}, err
	}
	return replayJournal(raw)
}

// apply installs the recovered state into the KB in one step: the
// snapshot's knowggets, with the log's entries replayed on top. Both
// were fully decoded before, so nothing here can fail half-way.
func (m *Manager) apply(snap *Snapshot, log logContents) {
	var statics []string
	state := make(map[string]knowledge.Knowgget)
	if snap != nil {
		for _, k := range snap.Knowggets {
			state[k.Key()] = k
		}
		statics = snap.StaticLabels
	}
	for _, e := range log.entries {
		switch e.Op {
		case knowledge.OpPut:
			state[e.Knowgget.Key()] = e.Knowgget
		case knowledge.OpDelete:
			delete(state, e.Key)
		}
	}
	ks := make([]knowledge.Knowgget, 0, len(state))
	for _, k := range state {
		ks = append(ks, k)
	}
	m.kb.Restore(ks, statics)
	m.recovered = len(ks)
	m.replayed = len(log.entries)
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
// to the log. Failures are sticky — the first I/O error disables
// logging and is reported by Err and Stop.
func (m *Manager) record(op byte, key string, k knowledge.Knowgget) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.err != nil || m.journal == nil {
		return
	}
	// One copy into the log's shared mapping per record. KB mutations
	// are change-gated but not rare — a routing trace changes the KB
	// about once every 18 frames — and a record buffered in the
	// process would die with it: a store into the mapping is in the
	// kernel's page cache once the copy ends, which is what makes "lose
	// at most the record being written" hold across a process crash, at
	// ≈ 130 ns a record, encoding included, where a write(2) of it costs
	// ≈ 800 (BenchmarkJournalRecord). Durability against power loss is
	// interval-bounded by the writer's fsync at each sync point.
	if err := m.journal.append(op, key, k); err != nil {
		m.err = fmt.Errorf("persist: journal append: %w", err)
		return
	}
	m.met.JournalBytes.Set(m.journal.bytes)
}

// noSync is lastSync before the first Tick: no capture time is at or
// after it, so the first Tick takes the lock and sets the clock.
const noSync = math.MaxInt64

// Tick drives sync points from the capture clock: when now has
// advanced a full interval past the last one, everything accepted so
// far is handed to the writer to be made durable. Tick never waits for
// it: a sync point that falls due while the previous one is still in
// flight is postponed to the first Tick after that one completes. A
// clock that jumps backwards (trace replay restarting, bench loops)
// just re-bases the interval. The fast path, inside the interval, is
// one atomic load and two comparisons per packet, with no lock.
func (m *Manager) Tick(now time.Time) {
	t := now.UnixNano()
	if last := m.lastSync.Load(); t >= last && t-last < int64(m.interval) {
		return
	}
	m.tick(t)
}

// tick is Tick past its fast path, under mu.
func (m *Manager) tick(t int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.err != nil {
		return
	}
	last := m.lastSync.Load()
	if last == noSync || t < last {
		m.lastSync.Store(t)
		return
	}
	if m.busy || t-last < int64(m.interval) {
		return
	}
	if err := m.syncLocked(); err != nil {
		m.err = err
		return
	}
	m.lastSync.Store(t)
}

// syncLocked is one sync point: it hands the log to the writer, which
// makes everything appended so far durable, and an interval in which no
// knowledge changed hands off nothing. It is a checkpoint instead, run
// here, when the log has grown rotateBytes, or when the KB's static
// labels have grown (they are only ever added): the static mark of a
// label lives in the snapshot alone, and must not wait longer for the
// disk than the knowgget it marks.
func (m *Manager) syncLocked() error {
	statics := m.kb.StaticCount() > m.snapStatics
	jw := m.journal
	if !statics && jw.synced == jw.bytes {
		return nil
	}
	if statics || jw.bytes-journalHeaderLen >= rotateBytes {
		if err := m.compactLocked(); err != nil {
			return err
		}
		m.met.Syncs.Inc()
		return nil
	}
	m.busy = true
	m.handoff <- jw
	return nil
}

// writer is the manager's one writer goroutine, from Open until Stop
// closes handoff. It runs the sync points Tick hands off, one at a
// time: one fsync makes durable every KB record appended to the log
// before it. The first failure is sticky, and no sync point is handed
// off after it.
func (m *Manager) writer() {
	for jw := range m.handoff {
		end, err := m.flushLog(jw)
		m.mu.Lock()
		switch {
		case err == nil:
			jw.synced = end
			m.met.Syncs.Inc()
		case m.err == nil:
			m.err = fmt.Errorf("persist: log sync: %w", err)
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

// flushLog makes the log durable up to its logical end, which it
// returns: the mapping's stores are handed to the file under mu, so no
// remap races it, and one fsync, outside mu, writes them back.
func (m *Manager) flushLog(jw *journalWriter) (end int64, err error) {
	m.mu.Lock()
	end, err = jw.bytes, flushMapping(jw.data)
	m.mu.Unlock()
	if err == nil {
		err = fsync(jw.f)
	}
	return end, err
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

// compactLocked is one checkpoint: it snapshots the current KB
// atomically, then replaces the log, atomically, with its header.
// Ordering is the crash-safety argument: the snapshot is in place
// (fsync + rename + dir fsync) before the log's KB records go, so a
// crash between the two replays records whose effects the snapshot
// already holds — puts are idempotent and deletes of absent keys are
// no-ops.
func (m *Manager) compactLocked() error {
	if err := m.writeSnapshotLocked(); err != nil {
		return err
	}
	if err := m.writeLog(); err != nil {
		return err
	}
	m.snapCurrent = true
	m.met.Snapshots.Inc()
	return nil
}

// onDisk reports whether a checkpoint would write what the state dir
// holds already: the snapshot is current, nothing was appended to the
// log since it was written as its header, and no label has turned
// static since.
func (m *Manager) onDisk() bool {
	return m.snapCurrent && m.journal.bytes == journalHeaderLen && m.kb.StaticCount() == m.snapStatics
}

// writeSnapshotLocked writes the Knowledge Base snapshot.
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

// writeLog replaces the log, by the snapshot's atomic-replace rule,
// with its header, and opens it for appends; it is mapped at the first.
// The log held open until then is unmapped and closed first: Windows
// renames over neither a mapped nor an open file.
func (m *Manager) writeLog() error {
	if m.journal != nil {
		m.journal.release()
		m.journal = nil
	}
	err := replaceFile(JournalPath(m.dir), func(w io.Writer) error {
		_, err := w.Write(logHeader)
		return err
	})
	if err != nil {
		return fmt.Errorf("persist: log rewrite: %w", err)
	}
	if m.journal, err = openJournalWriter(JournalPath(m.dir), journalHeaderLen, journalHeaderLen); err != nil {
		return fmt.Errorf("persist: log: %w", err)
	}
	m.met.JournalBytes.Set(journalHeaderLen)
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

// syncDir fsyncs the directory so a rename or removal is durable.
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
// restarts warm from a snapshot and a log holding only its header),
// unless the state dir holds that already, and a log unmapped, cut to
// its logical length, synced and closed. The manager logs nothing
// afterwards.
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
	if err == nil && !m.onDisk() {
		err = m.compactLocked()
	}
	if m.journal != nil {
		if cerr := m.journal.close(); err == nil {
			err = cerr
		}
		m.journal = nil
	}
	return err
}

// Outcome reports how the last recovery classified (warm, truncated,
// cold).
func (m *Manager) Outcome() Outcome { return m.outcome }

// Recovered reports the recovery volume: knowggets restored into the
// KB, and log entries applied on top of the snapshot.
func (m *Manager) Recovered() (knowggets, journalEntries int) {
	return m.recovered, m.replayed
}

// Err waits for any sync point in flight, then returns the sticky first
// I/O failure, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.waitLocked()
	return m.err
}

// JournalBytes returns the log's logical length in bytes: its header
// and frames, not the preallocated tail of the file.
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

// Tear simulates a power loss mid-append for chaos drills: it flushes
// nothing and zeroes the given number of bytes at the end of the log's
// frames, leaving a torn final frame as a crash during an append would.
// It never shrinks the file, which the torn node may still have mapped.
// It is invoked by fault.CrashNodeDirty's dirty hook.
func Tear(dir string, dropBytes int64) error {
	log, err := loadJournalFile(JournalPath(dir))
	if err != nil {
		return err
	}
	f, err := os.OpenFile(JournalPath(dir), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	from := max(log.good-dropBytes, 0)
	_, err = f.WriteAt(make([]byte, log.good-from), from)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
