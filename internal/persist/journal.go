package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"kalis/internal/core/knowledge"
)

// JournalMagic identifies a Kalis KB write-ahead journal.
var JournalMagic = [4]byte{'K', 'J', 'N', 'L'}

// JournalVersion is the current journal format version.
const JournalVersion = 1

// journalHeaderLen is magic + version.
const journalHeaderLen = 5

// maxJournalRecord bounds one journal record's payload; larger claims
// are treated as a torn tail, not an allocation request.
const maxJournalRecord = 1 << 20

// ErrJournalHeader means the journal file exists but its magic or
// version does not verify — unlike a torn tail, this is not
// recoverable by truncation and degrades the node to a cold start.
var ErrJournalHeader = errors.New("persist: bad journal header")

// JournalEntry is one replayed KB mutation.
type JournalEntry struct {
	// Op is knowledge.OpPut or knowledge.OpDelete.
	Op byte
	// Key is set for deletes (the encoded storage key).
	Key string
	// Knowgget is set for puts.
	Knowgget knowledge.Knowgget
}

// journalWriter appends framed, checksummed records to an open file:
// each append is one write(2), sync makes what was appended durable.
// Frame layout, following the trace/snapshot framing:
//
//	uvarint payload length | payload | crc32(payload) LE
//
// payload = op byte, then for OpPut flags+creator/label/entity/value,
// for OpDelete the storage key.
type journalWriter struct {
	f       *os.File
	bytes   int64  // total bytes written including header
	synced  int64  // the prefix of them an fsync has covered
	scratch []byte // one payload, reused across appends
	frame   []byte // its frame, likewise
}

// newJournalWriter creates (truncates) the journal file and writes its
// header.
func newJournalWriter(path string) (*journalWriter, error) { return openJournalWriter(path, 0) }

// openJournalWriter opens the journal for appends after its first n
// bytes, a verified prefix recovery has read; with n = 0 it creates
// (truncates) the file and writes its header. Either way the file is
// synced immediately, so a crash right after rotation still leaves a
// well-formed, empty journal, and a kept one is on disk as recovered.
func openJournalWriter(path string, n int64) (*journalWriter, error) {
	flag := os.O_WRONLY | os.O_APPEND
	if n == 0 {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	jw := &journalWriter{f: f, bytes: n}
	if n == 0 {
		if _, err := f.Write(append(JournalMagic[:], JournalVersion)); err != nil {
			_ = f.Close()
			return nil, err
		}
		jw.bytes = journalHeaderLen
	}
	if err := jw.sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return jw, nil
}

// append encodes one mutation record and writes it to the file.
func (jw *journalWriter) append(op byte, key string, k knowledge.Knowgget) error {
	payload := jw.scratch[:0]
	payload = append(payload, op)
	switch op {
	case knowledge.OpPut:
		payload = appendKnowgget(payload, k)
	case knowledge.OpDelete:
		payload = appendString(payload, key)
	default:
		return fmt.Errorf("persist: journal: unknown op %d", op)
	}
	jw.scratch = payload // keep the grown buffers for the next append
	jw.frame = appendFrame(jw.frame[:0], payload)
	if _, err := jw.f.Write(jw.frame); err != nil {
		return err
	}
	jw.bytes += int64(len(jw.frame))
	return nil
}

// appendFrame appends payload to dst in the frame the journal and the
// window log share:
//
//	uvarint payload length | payload | crc32(payload) LE
func appendFrame(dst, payload []byte) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(payload)+4)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// readFrame reads one frame and returns its verified payload and its
// size on the wire. io.EOF means a clean end exactly on a frame
// boundary; any other error a torn or corrupt frame (an end of input
// inside a frame is reported with %v, so it can never match io.EOF and
// pass for a clean end). A length claim of zero or above maxLen is
// corruption, not an allocation request, and the body is read through
// readExact, which grows only with the bytes actually present.
func readFrame(br *bufio.Reader, maxLen uint64) ([]byte, int64, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, err // io.EOF only when no byte of the frame was read
	}
	if n == 0 || n > maxLen {
		return nil, 0, fmt.Errorf("persist: frame length %d", n)
	}
	payload, err := readExact(br, n)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: frame body: %v", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, 0, fmt.Errorf("persist: frame checksum: %v", err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc32.ChecksumIEEE(payload) {
		return nil, 0, errors.New("persist: frame checksum mismatch")
	}
	return payload, int64(uvarintLen(n)) + int64(n) + 4, nil
}

// sync makes every appended record durable; with none appended since
// the last sync it issues no syscall.
func (jw *journalWriter) sync() error {
	if jw.synced == jw.bytes {
		return nil
	}
	if err := fsync(jw.f); err != nil {
		return err
	}
	jw.synced = jw.bytes
	return nil
}

// close syncs and closes the journal file.
func (jw *journalWriter) close() error {
	err := jw.sync()
	if cerr := jw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayJournal reads the journal byte stream and returns every intact
// entry plus the byte offset of the verified prefix. A torn or
// corrupt record ends the replay at the last good offset with
// truncated=true — the write-ahead contract: a crash mid-append loses
// at most the record being written, never an earlier one. A bad
// header returns ErrJournalHeader instead (cold start).
func replayJournal(r io.Reader) (entries []JournalEntry, goodBytes int64, truncated bool, err error) {
	br := bufio.NewReader(r)
	var header [journalHeaderLen]byte
	if _, herr := io.ReadFull(br, header[:]); herr != nil {
		return nil, 0, false, fmt.Errorf("%w: %v", ErrJournalHeader, herr)
	}
	if [4]byte(header[:4]) != JournalMagic || header[4] != JournalVersion {
		return nil, 0, false, ErrJournalHeader
	}
	goodBytes = journalHeaderLen
	for {
		entry, n, rerr := readJournalRecord(br)
		if errors.Is(rerr, io.EOF) {
			return entries, goodBytes, false, nil
		}
		if rerr != nil {
			// Torn tail or bit rot: keep the verified prefix.
			return entries, goodBytes, true, nil
		}
		entries = append(entries, entry)
		goodBytes += n
	}
}

// readJournalRecord reads one frame and decodes its mutation; io.EOF
// means a clean end exactly on a record boundary, any other error a
// torn/corrupt record.
func readJournalRecord(br *bufio.Reader) (JournalEntry, int64, error) {
	var entry JournalEntry
	payload, frameLen, err := readFrame(br, maxJournalRecord)
	if err != nil {
		return entry, 0, err
	}

	entry.Op = payload[0]
	body := payload[1:]
	switch entry.Op {
	case knowledge.OpPut:
		k, rest, err := readKnowgget(body)
		if err != nil || len(rest) != 0 {
			return entry, 0, errors.New("persist: malformed put record")
		}
		entry.Knowgget = k
	case knowledge.OpDelete:
		key, rest, err := readString(body)
		if err != nil || len(rest) != 0 {
			return entry, 0, errors.New("persist: malformed delete record")
		}
		entry.Key = key
	default:
		return entry, 0, fmt.Errorf("persist: unknown journal op %d", entry.Op)
	}
	return entry, frameLen, nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
