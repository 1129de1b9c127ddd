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

// AppendHeader appends the stream header — magic and version — to dst.
func AppendHeader(dst []byte) []byte {
	return append(append(dst, Magic[:]...), Version)
}

// Write appends one record.
func (w *Writer) Write(r *Record) error {
	body, err := AppendBody(w.scratch[:0], r, nil)
	if err != nil {
		return err
	}
	w.scratch = body // keep the grown buffer for the next record
	n := binary.PutUvarint(w.prefix[:], uint64(len(body)))
	return w.write(w.prefix[:n], body)
}

// WriteRecord appends one whole record, its body after its length, as
// it is.
func (w *Writer) WriteRecord(rec []byte) error { return w.write(rec, nil) }

// write appends a record given in two parts, after the stream header
// if none has been written yet.
func (w *Writer) write(a, b []byte) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	if _, err := w.w.Write(a); err != nil {
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.count++
	return nil
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

// Frame is a raw frame in the form AppendBody encodes it from: the
// outermost layer of a decoded frame, which appends its own wire bytes.
type Frame interface {
	// EncodedLen is the number of bytes AppendEncode appends.
	EncodedLen() int
	// AppendEncode appends the frame's wire bytes to dst and returns
	// the extended slice.
	AppendEncode(dst []byte) []byte
}

// ErrFrameLen reports a Frame whose encoding is not EncodedLen bytes.
var ErrFrameLen = errors.New("trace: frame encoding does not match its length")

// AppendBody appends r's record body to dst: varint capture
// nanoseconds, medium, RSSI bits, the raw frame after its length, and
// the ground-truth flag and fields. A stream carries each body after
// its uvarint length. A non-nil frame is the raw frame, encoded
// straight into dst, and r.Raw is not read. It is the format's one
// record encoder: Write and the Data Store's window both encode with
// it. A frame whose encoding is not EncodedLen bytes fails with
// ErrFrameLen and leaves dst as it was.
func AppendBody(dst []byte, r *Record, frame Frame) ([]byte, error) {
	n := len(r.Raw)
	if frame != nil {
		n = frame.EncodedLen()
	}
	start := len(dst)
	dst = binary.AppendVarint(dst, r.Time.UnixNano())
	dst = append(dst, byte(r.Medium))
	dst = binary.AppendUvarint(dst, math.Float64bits(r.RSSI))
	dst = binary.AppendUvarint(dst, uint64(n))
	if frame == nil {
		dst = append(dst, r.Raw...)
	} else {
		raw := len(dst)
		if dst = frame.AppendEncode(dst); len(dst)-raw != n {
			return dst[:start], ErrFrameLen
		}
	}
	if t := r.Truth; t != nil {
		dst = append(dst, 1)
		dst = appendString(dst, t.Attack)
		dst = binary.AppendUvarint(dst, uint64(t.Instance))
		dst = appendString(dst, string(t.Attacker))
		dst = appendString(dst, string(t.Victim))
	} else {
		dst = append(dst, 0)
	}
	return dst, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// slabSize is the size of the blocks a Reader carves raw frames from.
// A decoded frame aliases its raw bytes, so a frame kept alive keeps its
// whole slab; but the Data Store window keeps records, not frames, and
// a frame lives only until its dispatch — on a sharded node until its
// shard's ingest ring hands it over. Against 1 KiB, 4 KiB slabs cut the
// benchmark's allocations per frame by up to 12 % (wifi-flood 1.45 →
// 1.27) at under 1 % more bytes per frame on every workload.
const slabSize = 4 << 10

// Reader reads a trace stream. Read returns each record by value: the
// record itself costs nothing, and its Raw, carved from the reader's
// slabs, belongs to the caller — it stays valid and unchanged after
// later reads, shares no bytes with any other record's Raw, and may be
// kept (a decoded frame aliases it). A record's Truth is a fresh
// allocation when the record carries one.
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
func (r *Reader) Read() (Record, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return Record{}, err
		}
	}
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: record length: %w", err)
	}
	if n > 1<<24 {
		return Record{}, ErrCorrupt
	}
	r.body = slices.Grow(r.body[:0], int(n))[:n]
	if _, err := io.ReadFull(r.r, r.body); err != nil {
		return Record{}, fmt.Errorf("%w: body: %v", ErrCorrupt, err)
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
func (r *Reader) parseRecord(body []byte) (Record, error) {
	rec, err := parseBody(body)
	if err != nil {
		return Record{}, err
	}
	raw := r.carve(len(rec.Raw))
	copy(raw, rec.Raw)
	rec.Raw = raw
	return rec, nil
}

// ParseRecord decodes the whole record, its body after its length, at
// the start of b and returns it with its encoded length. Its Raw
// aliases b.
func ParseRecord(b []byte) (rec Record, n int, err error) {
	bodyLen, off := binary.Uvarint(b)
	if off <= 0 || bodyLen > uint64(len(b)-off) {
		return Record{}, 0, ErrCorrupt
	}
	n = off + int(bodyLen)
	rec, err = parseBody(b[off:n])
	return rec, n, err
}

// parseBody decodes one record body; the record's Raw aliases it.
func parseBody(body []byte) (Record, error) {
	nanos, off := binary.Varint(body)
	if off <= 0 || off >= len(body) {
		return Record{}, ErrCorrupt
	}
	rec := Record{Time: time.Unix(0, nanos).UTC()}
	rec.Medium = packet.Medium(body[off])
	body = body[off+1:]
	bits, off := binary.Uvarint(body)
	if off <= 0 {
		return Record{}, ErrCorrupt
	}
	rec.RSSI = math.Float64frombits(bits)
	body = body[off:]
	rawLen, off := binary.Uvarint(body)
	if off <= 0 || rawLen > uint64(len(body)-off) {
		return Record{}, ErrCorrupt
	}
	body = body[off:]
	rec.Raw = body[:rawLen:rawLen]
	body = body[rawLen:]
	if len(body) < 1 {
		return Record{}, ErrCorrupt
	}
	hasTruth := body[0] == 1
	body = body[1:]
	if hasTruth {
		t := &packet.GroundTruth{}
		var s string
		var err error
		if s, body, err = readString(body); err != nil {
			return Record{}, err
		}
		t.Attack = s
		inst, off := binary.Uvarint(body)
		if off <= 0 {
			return Record{}, ErrCorrupt
		}
		t.Instance = int(inst)
		body = body[off:]
		if s, body, err = readString(body); err != nil {
			return Record{}, err
		}
		t.Attacker = packet.NodeID(s)
		if s, _, err = readString(body); err != nil {
			return Record{}, err
		}
		t.Victim = packet.NodeID(s)
		rec.Truth = t
	}
	return rec, nil
}

func readString(body []byte) (string, []byte, error) {
	n, off := binary.Uvarint(body)
	if off <= 0 || n > uint64(len(body)-off) {
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
		out = append(out, &rec)
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
// many were skipped). With ReadAll it replays the Data Store's disk
// log for the administrator (§IV-B2).
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
