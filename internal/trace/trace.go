// Package trace implements Kalis' capture trace format: a compact
// binary, pcap-like stream of raw frames with capture metadata
// (virtual timestamp, medium, RSSI) and optional attack ground-truth
// labels used by the evaluation harness.
//
// The paper's methodology (§VI-A) is to "record and replay actual
// traces of network traffic from these devices, enhanced with
// additional packets representing symptoms of such attacks"; this
// package is the recording and replaying half of that methodology, and
// also backs the Data Store's disk log.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

// Magic identifies a Kalis trace stream.
var Magic = [4]byte{'K', 'T', 'R', 'C'}

// Version is the current format version.
const Version = 1

// Errors returned by the reader.
var (
	ErrBadMagic   = errors.New("trace: bad magic")
	ErrBadVersion = errors.New("trace: unsupported version")
	ErrCorrupt    = errors.New("trace: corrupt record")
)

// Record is one captured frame in a trace.
type Record struct {
	Time   time.Time
	Medium packet.Medium
	RSSI   float64
	Raw    []byte
	Truth  *packet.GroundTruth
}

// Decode parses the record's raw bytes through the protocol stack and
// returns the capture envelope, exactly as a live sniffer would have
// produced it. The Data Store "abstracts the traffic sources by
// replaying traffic transparently to the detection modules" (§IV-B2):
// modules cannot tell a decoded trace record from live capture.
func (r *Record) Decode() (*packet.Captured, error) {
	c, err := stack.Decode(r.Medium, r.Raw)
	if err != nil {
		return nil, err
	}
	c.Time = r.Time
	c.RSSI = r.RSSI
	c.Truth = r.Truth
	return c, nil
}

// Writer writes a trace stream.
type Writer struct {
	w       *bufio.Writer
	started bool
	count   int
	// scratch holds one record body and prefix its length between
	// Writes, so a warmed writer allocates nothing per record (a local
	// prefix array would escape through bufio's pass-through write).
	scratch []byte
	prefix  [binary.MaxVarintLen64]byte
}

// NewWriter creates a trace writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if _, err := w.w.Write(Magic[:]); err != nil {
		return err
	}
	if err := w.w.WriteByte(Version); err != nil {
		return err
	}
	w.started = true
	return nil
}

// Write appends one record.
func (w *Writer) Write(r *Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	buf := binary.AppendVarint(w.scratch[:0], r.Time.UnixNano())
	buf = append(buf, byte(r.Medium))
	buf = binary.AppendUvarint(buf, uint64(math.Float64bits(r.RSSI)))
	buf = binary.AppendUvarint(buf, uint64(len(r.Raw)))
	buf = append(buf, r.Raw...)
	if r.Truth != nil {
		buf = append(buf, 1)
		buf = appendString(buf, r.Truth.Attack)
		buf = binary.AppendUvarint(buf, uint64(r.Truth.Instance))
		buf = appendString(buf, string(r.Truth.Attacker))
		buf = appendString(buf, string(r.Truth.Victim))
	} else {
		buf = append(buf, 0)
	}
	w.scratch = buf // keep the grown buffer for the next record
	n := binary.PutUvarint(w.prefix[:], uint64(len(buf)))
	if _, err := w.w.Write(w.prefix[:n]); err != nil {
		return err
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.count++
	return nil
}

// Reset discards the writer's state and points it at dst: the next Write
// starts a new stream with its header. The writer keeps its buffers, so
// one writer serves many streams without allocating.
func (w *Writer) Reset(dst io.Writer) {
	w.w.Reset(dst)
	w.started = false
	w.count = 0
}

// Count returns the number of records written so far.
func (w *Writer) Count() int { return w.count }

// Flush flushes buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.w.Flush()
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// slabSize is the size of the blocks a Reader carves raw frames from.
// A kept frame keeps its whole slab, and a sharded node's windows keep
// a sparse subset of the frames read: on the benchmark's
// wifi-flood-sharded workload 4 KiB slabs grew the live heap by 3.5 %,
// 1 KiB ones by 0.5 %.
const slabSize = 1 << 10

// Reader reads a trace stream.
type Reader struct {
	r       *bufio.Reader
	started bool
	// body holds the record being parsed; it is reused, because only
	// the raw frame outlives Read.
	body []byte
	// slab is the unused tail of the current block of raw frames: each
	// record's Raw is copied into a piece carved from it with its
	// capacity clipped, so records share no bytes; a frame larger than
	// half a slab gets a block of its own, so no slab wastes more than
	// half of itself. A decoded frame aliases its Raw, so whatever keeps
	// a frame keeps its slab: carving the raw frame alone, not the
	// record body around it, keeps that small.
	slab []byte
}

// NewReader creates a trace reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (r *Reader) readHeader() error {
	var magic [5]byte
	if _, err := io.ReadFull(r.r, magic[:]); err != nil {
		return fmt.Errorf("trace: header: %w", err)
	}
	if [4]byte(magic[:4]) != Magic {
		return ErrBadMagic
	}
	if magic[4] != Version {
		return fmt.Errorf("%w: %d", ErrBadVersion, magic[4])
	}
	r.started = true
	return nil
}

// Read returns the next record, or io.EOF at end of stream.
func (r *Reader) Read() (*Record, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return nil, err
		}
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: record length: %w", err)
	}
	if n > 1<<24 {
		return nil, ErrCorrupt
	}
	r.body = slices.Grow(r.body[:0], int(n))[:n]
	if _, err := io.ReadFull(r.r, r.body); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrCorrupt, err)
	}
	return r.parseRecord(r.body)
}

// carve returns n bytes no other record's Raw uses.
func (r *Reader) carve(n int) []byte {
	if n > len(r.slab) {
		if n > slabSize/2 {
			return make([]byte, n)
		}
		r.slab = make([]byte, slabSize)
	}
	raw := r.slab[:n:n]
	r.slab = r.slab[n:]
	return raw
}

// parseRecord decodes one record body. The record's Raw is a copy of
// the frame in it, carved from the reader's slab.
func (r *Reader) parseRecord(body []byte) (*Record, error) {
	nanos, off := binary.Varint(body)
	if off <= 0 || off >= len(body) {
		return nil, ErrCorrupt
	}
	rec := &Record{Time: time.Unix(0, nanos).UTC()}
	rec.Medium = packet.Medium(body[off])
	body = body[off+1:]
	bits, off := binary.Uvarint(body)
	if off <= 0 {
		return nil, ErrCorrupt
	}
	rec.RSSI = math.Float64frombits(bits)
	body = body[off:]
	rawLen, off := binary.Uvarint(body)
	if off <= 0 || int(rawLen) > len(body)-off {
		return nil, ErrCorrupt
	}
	body = body[off:]
	rec.Raw = r.carve(int(rawLen))
	copy(rec.Raw, body)
	body = body[rawLen:]
	if len(body) < 1 {
		return nil, ErrCorrupt
	}
	hasTruth := body[0] == 1
	body = body[1:]
	if hasTruth {
		t := &packet.GroundTruth{}
		var s string
		var err error
		if s, body, err = readString(body); err != nil {
			return nil, err
		}
		t.Attack = s
		inst, off := binary.Uvarint(body)
		if off <= 0 {
			return nil, ErrCorrupt
		}
		t.Instance = int(inst)
		body = body[off:]
		if s, body, err = readString(body); err != nil {
			return nil, err
		}
		t.Attacker = packet.NodeID(s)
		if s, _, err = readString(body); err != nil {
			return nil, err
		}
		t.Victim = packet.NodeID(s)
		rec.Truth = t
	}
	return rec, nil
}

func readString(body []byte) (string, []byte, error) {
	n, off := binary.Uvarint(body)
	if off <= 0 || int(n) > len(body)-off {
		return "", nil, ErrCorrupt
	}
	return string(body[off : off+int(n)]), body[off+int(n):], nil
}

// ReadAll reads every record until EOF.
func ReadAll(r io.Reader) ([]*Record, error) {
	tr := NewReader(r)
	var out []*Record
	for {
		rec, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Merge interleaves multiple record streams by timestamp — the
// paper's trace-enhancement methodology (§VI-A): a clean capture of
// benign device traffic merged with generated attack-symptom records
// yields the evaluation input. Ties preserve the argument order.
func Merge(streams ...[]*Record) []*Record {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]*Record, 0, total)
	idx := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for si, s := range streams {
			if idx[si] >= len(s) {
				continue
			}
			if best < 0 || s[idx[si]].Time.Before(streams[best][idx[best]].Time) {
				best = si
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// Replay decodes each record and feeds it to fn in order, skipping
// records whose raw bytes fail protocol decoding (and reporting how
// many were skipped).
func Replay(records []*Record, fn func(*packet.Captured)) (skipped int) {
	for _, rec := range records {
		c, err := rec.Decode()
		if err != nil {
			skipped++
			continue
		}
		fn(c)
	}
	return skipped
}
