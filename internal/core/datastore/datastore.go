// Package datastore implements Kalis' Data Store (§IV-B2): it listens
// for newly captured packets, keeps a sliding window of the most recent
// traffic in memory for modules to access, optionally logs all traffic
// to disk via the trace format, and can replay logged traffic
// transparently to the detection modules.
package datastore

import (
	"fmt"
	"io"
	"sync"

	"kalis/internal/packet"
	"kalis/internal/telemetry"
	"kalis/internal/trace"
)

// DefaultWindow is the default sliding-window capacity in packets.
const DefaultWindow = 4096

// Store is the Data Store of one Kalis node.
type Store struct {
	mu      sync.RWMutex
	window  []*packet.Captured // ring buffer
	head    int                // next write position
	size    int                // number of valid entries
	total   uint64             // packets ever appended
	log     logEncoder         // the disk log; its writer is nil when off
	logSink io.Writer          // raw writer behind the log, for sync/close
	met     StoreMetrics

	// snapMu serializes SnapshotTo, which encodes through snap outside
	// mu so that Append never waits for it.
	snapMu sync.Mutex
	snap   logEncoder
}

// logEncoder writes captures as trace records through one reused
// buffer for the re-encoded frame: once warm, logging a capture
// allocates nothing.
type logEncoder struct {
	w   *trace.Writer
	raw []byte
}

// appendEncoder is the outermost layer of a frame Decode produced: the
// 802.15.4 frame, the 802.11 frame or the BLE PDU.
type appendEncoder interface{ AppendEncode(dst []byte) []byte }

// write logs c, unless it has nothing loggable (a synthetic capture
// whose outermost layer cannot re-encode). The capture path does not
// retain a frame's raw bytes, so the record holds the outermost layer's
// encoding of what was decoded.
func (e *logEncoder) write(c *packet.Captured) error {
	if len(c.Layers) == 0 {
		return nil
	}
	l, ok := c.Layers[0].(appendEncoder)
	if !ok {
		return nil
	}
	e.raw = l.AppendEncode(e.raw[:0])
	rec := trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: e.raw, Truth: c.Truth}
	return e.w.Write(&rec)
}

// StoreMetrics are the store's optional telemetry hooks; zero-value
// fields are skipped (all telemetry types are nil-safe).
type StoreMetrics struct {
	// Appended counts packets ever appended.
	Appended *telemetry.Counter
}

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (s *Store) SetMetrics(met StoreMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = met
}

// New creates a Store with the given sliding-window capacity (packets).
// capacity <= 0 selects DefaultWindow.
func New(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultWindow
	}
	return &Store{window: make([]*packet.Captured, capacity)}
}

// SetLog enables logging of all appended traffic to w in the Kalis
// trace format. Pass a file to log on disk; logging failures are
// reported by Append.
func (s *Store) SetLog(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log.w = trace.NewWriter(w)
	s.logSink = w
}

// Append records a captured packet into the sliding window (and the
// disk log if enabled).
func (s *Store) Append(c *packet.Captured) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.window[s.head] = c
	s.head = (s.head + 1) % len(s.window)
	if s.size < len(s.window) {
		s.size++
	}
	s.total++
	s.met.Appended.Inc()
	if s.log.w != nil {
		if err := s.log.write(c); err != nil {
			//lint:ignore hotpath disk-log failure branch; logging is off in passive deployments and the wrap is the error report itself
			return fmt.Errorf("datastore: log: %w", err)
		}
	}
	return nil
}

// FlushLog flushes the disk log, if enabled.
func (s *Store) FlushLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.w == nil {
		return nil
	}
	return s.log.w.Flush()
}

// CloseLog flushes the disk log and, when the underlying writer is a
// file or other closer, syncs and closes it — so a clean node shutdown
// never strands the last buffered records in memory. The log is
// detached either way; further appends are not logged.
func (s *Store) CloseLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.w == nil {
		return nil
	}
	err := s.log.w.Flush()
	if f, ok := s.logSink.(interface{ Sync() error }); ok {
		if serr := f.Sync(); err == nil {
			err = serr
		}
	}
	if c, ok := s.logSink.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	s.log.w, s.logSink = nil, nil
	return err
}

// Recent returns up to n of the most recent packets, oldest first.
// n <= 0 returns the whole window.
func (s *Store) Recent(n int) []*packet.Captured {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if n <= 0 || n > s.size {
		n = s.size
	}
	return s.recentLocked(n)
}

// recentLocked copies out the n <= s.size most recent packets, oldest
// first.
func (s *Store) recentLocked(n int) []*packet.Captured {
	out := make([]*packet.Captured, 0, n)
	start := s.head - n
	if start < 0 {
		start += len(s.window)
	}
	for i := 0; i < n; i++ {
		out = append(out, s.window[(start+i)%len(s.window)])
	}
	return out
}

// Len returns the number of packets currently in the window.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Total returns the number of packets ever appended.
func (s *Store) Total() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.total
}

// Capacity returns the sliding-window capacity.
func (s *Store) Capacity() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.window)
}

// SnapshotTo encodes to w, as one Kalis trace stream, oldest first, the
// packets appended since the store's running total read since and
// still in the window; since 0 is the whole window. It returns the
// number of records written and the total to pass as since next time —
// durable state logs the window incrementally this way, each frame
// encoded when it arrives instead of with every snapshot. The encoding
// is the trace log's, wholesale: synthetic captures whose outermost
// layer cannot re-encode are skipped, exactly as the disk log skips
// them. Its encoder is the store's and is reused, so a call allocates
// the same few objects however many frames it writes.
func (s *Store) SnapshotTo(w io.Writer, since uint64) (n int, total uint64, err error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.RLock()
	total = s.total
	fresh := s.size
	if total-since < uint64(fresh) {
		fresh = int(total - since)
	}
	window := s.recentLocked(fresh) // copy under RLock; encode without the lock
	s.mu.RUnlock()

	if s.snap.w == nil {
		s.snap.w = trace.NewWriter(nil)
	}
	s.snap.w.Reset(w)
	defer s.snap.w.Reset(nil) // keep no caller's buffer alive
	for _, c := range window {
		if err := s.snap.write(c); err != nil {
			return s.snap.w.Count(), total, fmt.Errorf("datastore: snapshot: %w", err)
		}
	}
	if err := s.snap.w.Flush(); err != nil {
		return s.snap.w.Count(), total, fmt.Errorf("datastore: snapshot: %w", err)
	}
	return s.snap.w.Count(), total, nil
}

// Restore loads recovered trace records into the sliding window in
// order, bypassing the disk log and telemetry (recovery runs before
// either is wired). Records that fail protocol decoding are skipped
// and counted. Restore is meant for an empty, pre-traffic store; the
// window retains the most recent records if they exceed capacity.
func (s *Store) Restore(recs []*trace.Record) (restored, skipped int) {
	skipped = trace.Replay(recs, func(c *packet.Captured) {
		restored++
		s.mu.Lock()
		s.window[s.head] = c
		s.head = (s.head + 1) % len(s.window)
		if s.size < len(s.window) {
			s.size++
		}
		s.total++
		s.mu.Unlock()
	})
	return restored, skipped
}
