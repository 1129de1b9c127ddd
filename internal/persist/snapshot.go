package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"kalis/internal/core/knowledge"
)

// SnapshotMagic identifies a Kalis node snapshot.
var SnapshotMagic = [4]byte{'K', 'S', 'N', 'P'}

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

// Snapshot section identifiers.
const (
	sectionKB        = byte(1) // Knowledge Base entries + static labels
	sectionDataStore = byte(2) // the Data Store window, in snapshots of older commits; skipped
)

// maxSectionLen bounds a section payload; anything larger is treated
// as corruption rather than an allocation request.
const maxSectionLen = 1 << 28

// Errors returned by the snapshot loader. All of them mean "cold
// start": a snapshot either verifies completely or is not used at all.
var (
	ErrSnapshotMagic   = errors.New("persist: bad snapshot magic")
	ErrSnapshotVersion = errors.New("persist: unsupported snapshot version")
	ErrSnapshotCorrupt = errors.New("persist: corrupt snapshot")
)

// Snapshot is the decoded durable state of one Kalis node: the full
// Knowledge Base contents.
type Snapshot struct {
	Knowggets    []knowledge.Knowgget
	StaticLabels []string

	// skipped is set when the stream also carried a section that was
	// verified and not read (an older commit's window section): such a
	// snapshot is not what a checkpoint would write.
	skipped bool
}

// EncodeSnapshot serializes the snapshot: magic, version, then one
// self-checking section per state domain. Each section is an id byte
// followed by the log's frame,
//
//	id byte | uvarint payload length | payload | crc32(payload) LE
//
// so a torn tail or a flipped bit is always caught on load.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	if _, err := w.Write(SnapshotMagic[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{SnapshotVersion}); err != nil {
		return err
	}
	return writeSection(w, sectionKB, encodeKB(s))
}

// writeSection writes one section: its id, then its payload in the
// log's frame (see appendFrame).
func writeSection(w io.Writer, id byte, payload []byte) error {
	_, err := w.Write(appendFrame([]byte{id}, payload))
	return err
}

// encodeKB serializes the Knowledge Base section payload: knowgget
// count, then each knowgget as flags + creator/label/entity/value,
// then the static-label list.
func encodeKB(s *Snapshot) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(s.Knowggets)))
	for _, k := range s.Knowggets {
		buf = appendKnowgget(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.StaticLabels)))
	for _, label := range s.StaticLabels {
		buf = appendString(buf, label)
	}
	return buf
}

func appendKnowgget(buf []byte, k knowledge.Knowgget) []byte {
	flags := byte(0)
	if k.Collective {
		flags |= 1
	}
	if k.Version != 0 {
		flags |= 2
	}
	buf = append(buf, flags)
	buf = appendString(buf, k.Creator)
	buf = appendString(buf, k.Label)
	buf = appendString(buf, k.Entity)
	buf = appendString(buf, k.Value)
	if k.Version != 0 {
		buf = binary.AppendUvarint(buf, k.Version)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// DecodeSnapshot parses and fully verifies a snapshot stream. It
// either returns a complete, checksum-verified snapshot or an error —
// never a partial result: the caller's recovery ladder treats any
// error as a cold start.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	var header [5]byte
	if _, err := io.ReadFull(br, header[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrSnapshotCorrupt, err)
	}
	if [4]byte(header[:4]) != SnapshotMagic {
		return nil, ErrSnapshotMagic
	}
	if header[4] != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrSnapshotVersion, header[4])
	}
	snap := &Snapshot{}
	seen := make(map[byte]bool)
	for {
		id, err := br.ReadByte()
		if errors.Is(err, io.EOF) {
			return snap, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: section id: %v", ErrSnapshotCorrupt, err)
		}
		payload, _, err := readFrame(br, maxSectionLen)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrSnapshotCorrupt, id, err)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrSnapshotCorrupt, id)
		}
		seen[id] = true
		switch id {
		case sectionKB:
			if err := decodeKB(payload, snap); err != nil {
				return nil, err
			}
		case sectionDataStore:
			// Verified like any section, and not read: a node's window
			// is not durable state.
			snap.skipped = true
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrSnapshotCorrupt, id)
		}
	}
}

func decodeKB(payload []byte, snap *Snapshot) error {
	count, payload, err := readUvarint(payload)
	if err != nil {
		return err
	}
	if count > maxSectionLen {
		return fmt.Errorf("%w: knowgget count %d", ErrSnapshotCorrupt, count)
	}
	snap.Knowggets = make([]knowledge.Knowgget, 0, min(int(count), 4096))
	for i := uint64(0); i < count; i++ {
		var k knowledge.Knowgget
		if k, payload, err = readKnowgget(payload); err != nil {
			return err
		}
		snap.Knowggets = append(snap.Knowggets, k)
	}
	count, payload, err = readUvarint(payload)
	if err != nil {
		return err
	}
	if count > maxSectionLen {
		return fmt.Errorf("%w: static-label count %d", ErrSnapshotCorrupt, count)
	}
	for i := uint64(0); i < count; i++ {
		var label string
		if label, payload, err = readString(payload); err != nil {
			return err
		}
		snap.StaticLabels = append(snap.StaticLabels, label)
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in KB section", ErrSnapshotCorrupt, len(payload))
	}
	return nil
}

func readKnowgget(buf []byte) (knowledge.Knowgget, []byte, error) {
	var k knowledge.Knowgget
	if len(buf) < 1 {
		return k, nil, fmt.Errorf("%w: knowgget flags", ErrSnapshotCorrupt)
	}
	flags := buf[0]
	k.Collective = flags&1 != 0
	buf = buf[1:]
	var err error
	if k.Creator, buf, err = readString(buf); err != nil {
		return k, nil, err
	}
	if k.Label, buf, err = readString(buf); err != nil {
		return k, nil, err
	}
	if k.Entity, buf, err = readString(buf); err != nil {
		return k, nil, err
	}
	if k.Value, buf, err = readString(buf); err != nil {
		return k, nil, err
	}
	// Flag bit 2 (added with the gossip version vectors) marks a
	// trailing creator-local version; records written before it decode
	// unchanged with Version 0.
	if flags&2 != 0 {
		if k.Version, buf, err = readUvarint(buf); err != nil {
			return k, nil, err
		}
	}
	return k, buf, nil
}

// readExact reads exactly n bytes, growing in bounded chunks so a
// corrupt length claim cannot force a giant up-front allocation — the
// read fails at the true end of input long before the claimed size is
// reached.
func readExact(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(int(n), chunk))
	for uint64(len(buf)) < n {
		step := n - uint64(len(buf))
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, off := binary.Uvarint(buf)
	if off <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrSnapshotCorrupt)
	}
	return v, buf[off:], nil
}

func readString(buf []byte) (string, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(buf)) {
		return "", nil, fmt.Errorf("%w: truncated string", ErrSnapshotCorrupt)
	}
	return string(buf[:n]), buf[n:], nil
}

// EncodeSnapshotBytes is EncodeSnapshot into memory, for tests and
// fuzzers that need a valid stream to mutate.
func EncodeSnapshotBytes(s *Snapshot) []byte {
	var buf bytes.Buffer
	// bytes.Buffer writes cannot fail.
	_ = EncodeSnapshot(&buf, s)
	return buf.Bytes()
}
