// Package datastore implements Kalis' Data Store (§IV-B2): it listens
// for newly captured packets, keeps a sliding window of the most recent
// traffic in memory, optionally logs all traffic to disk via the trace
// format, and can replay logged traffic transparently to the detection
// modules.
//
// The window is kept the way the log is: each frame as the trace record
// trace.Writer would write for it, in one byte ring that holds no
// pointer. A frame is encoded once, when it is appended; the disk log
// copies those bytes as they are, and only Recent decodes them again.
// No decoded frame is kept, so a frame dies when its dispatch returns.
// The window lives in memory only: a node's durable state
// (internal/persist) is its knowledge, and a restarted node's window
// starts empty.
package datastore

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"kalis/internal/packet"
	"kalis/internal/telemetry"
	"kalis/internal/trace"
)

// DefaultWindow is the default sliding-window capacity in packets.
const DefaultWindow = 4096

// minRing is the smallest ring the window allocates, in bytes.
const minRing = 256

// Store is the Data Store of one Kalis node. Its window holds the last
// Capacity frames as trace records (trace.AppendBody) in a byte ring,
// each record whole, beside a ring of the positions they start at. A
// capture whose outermost layer cannot encode itself (trace.Frame) is
// counted in Total but neither kept in the window nor logged: only a
// capture built by hand can be one, as every frame stack.Decode returns
// encodes.
type Store struct {
	mu sync.Mutex
	// ring holds the window's records, oldest first from the oldest's
	// position. They lie in one run up to head when head == top; when
	// head < top they wrap: the older ones end at top and the newer ones
	// run from 0 to head. No record straddles the end of the ring.
	ring      []byte
	head, top int
	// pos is a ring of where each record starts in ring: the oldest's at
	// pos[first], the size-1 newer ones after it.
	pos         []int
	first, size int
	body        []byte // the newest record's body, encoded before it is placed
	total       uint64 // packets ever appended
	log         *trace.Writer
	logSink     io.Writer // raw writer behind the log, for sync/close
	met         StoreMetrics
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
	return &Store{pos: make([]int, capacity)}
}

// SetLog enables logging of all appended traffic to w in the Kalis
// trace format. Pass a file to log on disk; logging failures are
// reported by Append.
func (s *Store) SetLog(w io.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = trace.NewWriter(w)
	s.logSink = w
}

// Append records a captured packet into the sliding window (and the
// disk log if enabled). The frame is encoded once and its record
// copied into the ring; the log writes the same bytes. Once the ring
// has grown to the window it allocates nothing.
func (s *Store) Append(c *packet.Captured) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total++
	s.met.Appended.Inc()
	if len(c.Layers) == 0 {
		return nil
	}
	frame, ok := c.Layers[0].(trace.Frame)
	if !ok {
		return nil
	}
	rec := trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Truth: c.Truth}
	b, err := s.push(&rec, frame)
	if err != nil {
		return err
	}
	if s.log != nil {
		if err := s.log.WriteRecord(b); err != nil {
			//lint:ignore hotpath disk-log failure branch; logging is off in passive deployments and the wrap is the error report itself
			return fmt.Errorf("datastore: log: %w", err)
		}
	}
	return nil
}

// push encodes rec, its raw frame from frame, as the newest record of
// the window, evicting the oldest from a full one, and returns the
// record's bytes in the ring. The body is encoded into the store's body
// buffer, where its length comes out, and copied into the ring after
// that length.
func (s *Store) push(rec *trace.Record, frame trace.Frame) ([]byte, error) {
	body, err := trace.AppendBody(s.body[:0], rec, frame)
	if err != nil {
		return nil, err
	}
	s.body = body
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(len(body)))
	need := n + len(body)
	if s.size == len(s.pos) {
		s.evict()
	}
	at := s.place(need)
	b := append(append(s.ring[at:at], prefix[:n]...), body...)
	s.pos[s.slot(s.size)] = at
	s.size++
	if s.head == s.top && at == s.head {
		s.top = at + need
	}
	s.head = at + need
	return b, nil
}

// slot is the index in pos of the k-th oldest record, 0 <= k <= size.
func (s *Store) slot(k int) int {
	i := s.first + k
	if i >= len(s.pos) {
		i -= len(s.pos)
	}
	return i
}

// evict drops the oldest record.
func (s *Store) evict() {
	was := s.pos[s.first]
	s.first = s.slot(1)
	s.size--
	if s.size == 0 {
		s.head, s.top = 0, 0
	} else if s.pos[s.first] < was {
		s.top = s.head // the older run is gone: the records lie in one run again
	}
}

// place returns where a record of need bytes goes: at head, at the
// start of the ring once the records before the oldest have left room
// there, or at head of a ring laid out anew, larger — or smaller, when
// at a wrap the ring is over half as large again as what it holds.
func (s *Store) place(need int) int {
	if s.size == 0 {
		s.head, s.top = 0, 0
		if need <= len(s.ring) {
			return 0
		}
	} else if tail := s.pos[s.first]; s.head != s.top {
		if need <= tail-s.head {
			return s.head
		}
	} else if need <= len(s.ring)-s.head {
		return s.head
	} else if held := s.head - tail + need; need <= tail && len(s.ring) <= max(held+held/2, minRing) {
		return 0
	}
	s.relayout(need)
	return s.head
}

// ringSize is the ring the window lays n bytes of records out in: a
// quarter more, so that a full window of steady traffic wraps without
// growing.
func ringSize(n int) int { return max(n+n/4, minRing) }

// relayout moves the window's records, oldest first, to the start of a
// new ring sized for them and need bytes more.
func (s *Store) relayout(need int) {
	tail := s.pos[s.first] // read only if the window holds records
	older, newer := s.runs(0, s.size)
	ring := make([]byte, ringSize(len(older)+len(newer)+need))
	copy(ring[copy(ring, older):], newer)
	for k := range s.size {
		if p := &s.pos[s.slot(k)]; *p >= tail {
			*p -= tail
		} else {
			*p += len(older) // a newer record, from the start of the ring
		}
	}
	s.ring = ring
	s.head = len(older) + len(newer)
	s.top = s.head
}

// runs returns the bytes of the n records from the k-th oldest on,
// k+n <= size: one run, or two when they wrap.
func (s *Store) runs(k, n int) (older, newer []byte) {
	if n <= 0 {
		return nil, nil
	}
	at, end := s.pos[s.slot(k)], s.head
	if k+n < s.size {
		end = s.pos[s.slot(k+n)]
	}
	if end > at {
		return s.ring[at:end], nil
	}
	return s.ring[at:s.top], s.ring[:end]
}

// FlushLog flushes the disk log, if enabled.
func (s *Store) FlushLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Flush()
}

// CloseLog flushes the disk log and, when the underlying writer is a
// file or other closer, syncs and closes it — so a clean node shutdown
// never strands the last buffered records in memory. The log is
// detached either way; further appends are not logged.
func (s *Store) CloseLog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Flush()
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
	s.log, s.logSink = nil, nil
	return err
}

// Recent returns up to n of the most recent packets, oldest first,
// decoded afresh from the window's records; n <= 0 returns the whole
// window. It copies the records under the store's lock and decodes them
// without it.
func (s *Store) Recent(n int) []*packet.Captured {
	s.mu.Lock()
	if n <= 0 || n > s.size {
		n = s.size
	}
	older, newer := s.runs(s.size-n, n)
	recs := append(append(make([]byte, 0, len(older)+len(newer)), older...), newer...)
	s.mu.Unlock()

	out := make([]*packet.Captured, 0, n)
	for len(recs) > 0 {
		rec, l, err := trace.ParseRecord(recs)
		if err != nil {
			break // unreachable: the store wrote every record
		}
		recs = recs[l:]
		if c, err := rec.Decode(); err == nil {
			out = append(out, c)
		}
	}
	return out
}

// Len returns the number of packets currently in the window.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Total returns the number of packets ever appended.
func (s *Store) Total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Capacity returns the sliding-window capacity.
func (s *Store) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pos)
}
