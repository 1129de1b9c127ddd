package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"kalis/internal/core/knowledge"
	"kalis/internal/trace"
)

// JournalMagic identifies a Kalis state log (journal.kjnl).
var JournalMagic = [4]byte{'K', 'J', 'N', 'L'}

// JournalVersion is the current log format version. Window chunks
// joined the log's frames without a new version: a log that holds none
// is exactly the journal older commits wrote.
const JournalVersion = 1

// journalHeaderLen is magic + version.
const journalHeaderLen = 5

// logHeader is the log's header, magic and version.
var logHeader = append(JournalMagic[:], JournalVersion)

// opWindow marks a log frame that carries a window chunk, beside the
// Knowledge Base's knowledge.OpPut and knowledge.OpDelete.
const opWindow = byte(3)

// maxFrame bounds the payload of a log frame. It is a window chunk of
// one record of the largest size internal/trace reads back — a body of
// 1<<24 bytes behind its 4-byte length, after the op byte and the
// 5-byte stream header; copyWindow cuts a chunk of more records before
// it passes this, and no KB record comes near it. So a longer claim is
// always a torn or corrupt frame, and no valid frame is ever read as
// one.
const maxFrame = 1<<24 + 10

// ErrJournalHeader means the log file exists but its magic or version
// does not verify — unlike a torn tail, this is not recoverable by
// truncation and loses the log wholesale.
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

// journalWriter appends framed, checksummed frames to the open log
// through a shared mapping of the file. An append copies the frame into
// the mapping at the log's logical end, bytes: once the copy ends the
// frame is in the kernel's page cache, where it outlives the process,
// and the next fsync of the file writes it back. Every append happens
// under the manager's lock — the KB records the callers of record
// append, and the window chunks the writer goroutine appends — so
// frames land whole, one after another, with no gap between them. The
// file runs ahead of the logical end by a preallocated tail of zeros,
// which replay reads as a clean end; closing the log cuts it off. Frame
// layout, following the trace/snapshot framing:
//
//	uvarint payload length | payload | crc32(payload) LE
//
// payload = op byte, then for OpPut flags+creator/label/entity/value,
// for OpDelete the storage key, for opWindow a trace stream.
type journalWriter struct {
	f       *os.File
	data    []byte // the file, mapped shared; nil until the first append
	bytes   int64  // the logical length, header included
	synced  int64  // the prefix of it an fsync has covered
	scratch []byte // one payload, reused across appends
	frame   []byte // its frame, likewise
}

// mapAhead is how far a remap preallocates the file past the frame
// that needs it: rotateBytes, the growth at which a checkpoint writes
// the log whole again, so a log is remapped about once between two
// checkpoints.
const mapAhead = rotateBytes

// openJournalWriter opens the log for appends after its first n bytes,
// of which the first synced are already durable; it fsyncs the rest, so
// a log recovery has kept is on disk as it was recovered. Whatever
// follows the n bytes is zeros: the preallocated tail of a node that
// did not stop cleanly. The file is mapped at the first append.
func openJournalWriter(path string, n, synced int64) (*journalWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	jw := &journalWriter{f: f, bytes: n, synced: synced}
	if err := jw.sync(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return jw, nil
}

// append encodes one mutation record and appends it to the log.
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
	_, err := jw.Write(jw.frame)
	return err
}

// Write appends p, whole frames, at the log's logical end: a copy into
// the mapping, remapped first when p does not fit in it.
func (jw *journalWriter) Write(p []byte) (int, error) {
	end := jw.bytes + int64(len(p))
	if end > int64(len(jw.data)) {
		if err := jw.remap(end); err != nil {
			return 0, err
		}
	}
	copy(jw.data[jw.bytes:], p)
	jw.bytes = end
	return len(p), nil
}

// remap preallocates the file mapAhead past end and maps all of it.
// Where the preallocation allocates blocks (fallocate on Linux), a full
// disk fails it, and not a store into the mapping.
func (jw *journalWriter) remap(end int64) error {
	if err := jw.unmap(); err != nil {
		return err
	}
	if err := preallocate(jw.f, end+mapAhead); err != nil {
		return err
	}
	fi, err := jw.f.Stat()
	if err != nil {
		return err
	}
	jw.data, err = mapFile(jw.f, fi.Size())
	return err
}

// unmap hands the mapping's stores to the file and drops the mapping.
func (jw *journalWriter) unmap() error {
	if jw.data == nil {
		return nil
	}
	err := flushMapping(jw.data)
	if uerr := unmapFile(jw.data); err == nil {
		err = uerr
	}
	jw.data = nil
	return err
}

// extend makes f at least size bytes long, the new bytes zeros. It
// never shrinks f.
func extend(f *os.File, size int64) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() >= size {
		return err
	}
	return f.Truncate(size)
}

// appendFrame appends payload to dst in the frame every state file
// shares:
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

// replayFrames reads a stream of frames behind header and hands each
// payload to each, in order, until a clean end, or the first frame that
// is torn, fails its checksum or that each rejects. It returns the
// length of the verified prefix and whether bytes followed it; a header
// that does not verify is an error.
func replayFrames(r io.Reader, header []byte, each func(payload []byte) error) (good int64, torn bool, err error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(header))
	if _, err := io.ReadFull(br, got); err != nil {
		return 0, false, fmt.Errorf("header: %v", err)
	}
	if !bytes.Equal(got, header) {
		return 0, false, errors.New("header mismatch")
	}
	good = int64(len(header))
	for {
		payload, n, err := readFrame(br, maxFrame)
		if errors.Is(err, io.EOF) {
			return good, false, nil
		}
		if err != nil || each(payload) != nil {
			return good, true, nil
		}
		good += n
	}
}

// logContents is the decoded verified prefix of a log.
type logContents struct {
	entries     []JournalEntry  // KB mutations, in order
	window      []*trace.Record // window records, oldest first
	windowBytes int64           // the size of the frames that carry them
	good        int64           // the verified prefix's length
	torn        bool            // bytes that did not verify followed it
}

// replayJournal reads the bytes of a log and returns its verified
// prefix, decoded. A torn, checksum-failing or undecodable frame ends
// the replay at the last good offset with torn set — the write-ahead
// contract: a crash mid-append loses at most the frame being written,
// never an earlier one, and no frame is ever applied in part. A frame
// boundary followed by nothing but zeros is a clean end: the
// preallocated tail of a log whose node did not stop cleanly. Zeros
// with anything else behind them are torn. A bad header returns
// ErrJournalHeader instead.
func replayJournal(raw []byte) (logContents, error) {
	var log logContents
	good, torn, err := replayFrames(bytes.NewReader(raw), logHeader, func(payload []byte) error {
		if payload[0] == opWindow {
			recs, err := trace.ReadAll(bytes.NewReader(payload[1:]))
			if err != nil {
				return err
			}
			log.window = append(log.window, recs...)
			log.windowBytes += int64(uvarintLen(uint64(len(payload))) + len(payload) + 4)
			return nil
		}
		entry, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		log.entries = append(log.entries, entry)
		return nil
	})
	if err != nil {
		return logContents{}, fmt.Errorf("%w: %v", ErrJournalHeader, err)
	}
	log.good, log.torn = good, torn && slices.ContainsFunc(raw[good:], func(b byte) bool { return b != 0 })
	return log, nil
}

// decodeEntry decodes the payload of a KB record.
func decodeEntry(payload []byte) (JournalEntry, error) {
	entry := JournalEntry{Op: payload[0]}
	body := payload[1:]
	switch entry.Op {
	case knowledge.OpPut:
		k, rest, err := readKnowgget(body)
		if err != nil || len(rest) != 0 {
			return entry, errors.New("persist: malformed put record")
		}
		entry.Knowgget = k
	case knowledge.OpDelete:
		key, rest, err := readString(body)
		if err != nil || len(rest) != 0 {
			return entry, errors.New("persist: malformed delete record")
		}
		entry.Key = key
	default:
		return entry, fmt.Errorf("persist: unknown journal op %d", entry.Op)
	}
	return entry, nil
}

// sync makes every appended frame durable; with none appended since
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

// close leaves the log as a stopped node's: unmapped, cut to its
// logical length, durable, closed. A log that is all logical is not
// cut: an idle node stops without touching its state files.
func (jw *journalWriter) close() error {
	err := jw.unmap()
	if err == nil {
		var fi os.FileInfo
		if fi, err = jw.f.Stat(); err == nil && fi.Size() != jw.bytes {
			err = jw.f.Truncate(jw.bytes)
		}
	}
	if err == nil {
		err = fsync(jw.f)
	}
	if cerr := jw.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// release unmaps and closes the log file, which is being replaced.
func (jw *journalWriter) release() {
	_ = jw.unmap()   // the stores are in the page cache either way
	_ = jw.f.Close() // what the file held is in the snapshot and its replacement
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
