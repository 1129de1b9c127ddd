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
	"path/filepath"

	"kalis/internal/trace"
)

// WindowLogMagic identifies a Kalis Data Store window log.
var WindowLogMagic = [4]byte{'K', 'W', 'I', 'N'}

// WindowLogVersion is the current window-log format version.
const WindowLogVersion = 1

// windowLogHeaderLen is magic + version.
const windowLogHeaderLen = 5

// windowLogHeader returns a fresh copy of the file header, ready to be
// appended to.
func windowLogHeader() []byte {
	return append(append(make([]byte, 0, windowLogHeaderLen), WindowLogMagic[:]...), WindowLogVersion)
}

// ErrWindowLogHeader means the window log exists but its magic or
// version does not verify. Unlike a torn tail this is not recoverable
// by truncation: the file is archived and the node restarts with an
// empty window — and, the window being no part of the Knowledge Base,
// with its knowledge intact.
var ErrWindowLogHeader = errors.New("persist: bad window-log header")

// WindowLogPath returns the window-log file path inside a state dir.
func WindowLogPath(dir string) string { return filepath.Join(dir, "window.kwin") }

// The window log is the Data Store's durable half. After the header it
// is a sequence of the journal's frames (see appendFrame), each payload
// one complete internal/trace stream of at most winChunk records, oldest
// first. A sync point appends the frames the Data Store took in since
// the previous one, a chunk to a log frame, and fsyncs them, so
// persisting the window costs O(new frames) where the snapshot's Data
// Store section cost O(window); the file is rewritten from the
// in-memory window, atomically, once it holds twice the window's
// capacity.

// winChunk is the most records one window-log frame carries. Every copy
// of the window — a sync point's, a checkpoint's, a rewrite's — goes
// through the manager's one buffer a chunk at a time, so the buffer
// stays a chunk long however many frames pile up behind a slow fsync,
// and no copy of a whole window is ever held.
const winChunk = 256

// frameRoom is what the chunk buffer keeps free before the payload for
// its frame's uvarint length.
var frameRoom [binary.MaxVarintLen64]byte

// replayWindowLog reads a window-log byte stream and returns every
// record of its verified prefix, oldest first, plus that prefix's
// length. A torn, checksum-failing or unparseable frame ends the replay
// at the last good offset with torn=true — a crash mid-append loses at
// most what was being written, never an earlier frame, and no frame is
// ever applied in part. A bad header returns ErrWindowLogHeader.
func replayWindowLog(r io.Reader) (recs []*trace.Record, goodBytes int64, torn bool, err error) {
	br := bufio.NewReader(r)
	var header [windowLogHeaderLen]byte
	if _, herr := io.ReadFull(br, header[:]); herr != nil {
		return nil, 0, false, fmt.Errorf("%w: %v", ErrWindowLogHeader, herr)
	}
	if [4]byte(header[:4]) != WindowLogMagic || header[4] != WindowLogVersion {
		return nil, 0, false, ErrWindowLogHeader
	}
	goodBytes = windowLogHeaderLen
	for {
		payload, n, rerr := readFrame(br, maxSectionLen)
		if errors.Is(rerr, io.EOF) {
			return recs, goodBytes, false, nil
		}
		if rerr != nil {
			return recs, goodBytes, true, nil
		}
		batch, perr := trace.ReadAll(bytes.NewReader(payload))
		if perr != nil {
			return recs, goodBytes, true, nil
		}
		recs = append(recs, batch...)
		goodBytes += n
	}
}

// loadWindowLogFile replays the window log. All-nil/zero returns mean
// no log exists; a non-nil error means the header itself is bad.
func loadWindowLogFile(path string) (recs []*trace.Record, goodBytes int64, torn bool, err error) {
	f, err := openState(path)
	if f == nil {
		return nil, 0, false, err
	}
	defer f.Close()
	return replayWindowLog(f)
}

// logWindow makes the frames the Data Store took in up to its Kept
// count upTo durable: appended to the log and fsynced — or, when they
// would bring the log to twice the window's capacity, a rewrite. With no
// new frames it writes nothing. It runs on the writer for a sync point
// and on mu for a checkpoint, never both at once.
func (m *Manager) logWindow(upTo uint64) error {
	if upTo <= m.winSeq {
		return nil
	}
	if uint64(m.winRecords)+upTo-m.winSeq >= 2*uint64(m.store.Capacity()) {
		return m.rewriteWindow(upTo)
	}
	n, next, err := m.copyWindow(m.win, m.winSeq, upTo)
	if err == nil {
		err = fsync(m.win)
	}
	if err != nil {
		return fmt.Errorf("persist: window log append: %w", err)
	}
	m.winRecords += n
	m.winSeq = next
	return nil
}

// copyWindow writes to w the window's records from the Data Store's
// Kept count since up to upTo — those the window still holds — a chunk
// at a time, each chunk its own frame. A chunk is the Data Store's own
// record bytes, copied under its lock into the manager's buffer and
// framed where it lies: no frame is encoded, and once the buffer has
// grown to a chunk nothing is allocated. It returns the number of
// records written and the Kept count they reach.
func (m *Manager) copyWindow(w io.Writer, since, upTo uint64) (n int, next uint64, err error) {
	for next = since; next < upTo; {
		m.winBuf.Reset()
		m.winBuf.Write(frameRoom[:])
		k, to, err := m.store.SnapshotTo(&m.winBuf, next, int(min(upTo-next, winChunk)))
		if err != nil || k == 0 {
			return n, next, err
		}
		if _, err := w.Write(frameChunk(&m.winBuf)); err != nil {
			return n, next, err
		}
		n, next = n+k, to
	}
	return n, next, nil
}

// frameChunk completes, where it lies, the frame around the payload buf
// holds after frameRoom: the checksum goes after it, the uvarint length
// right before it. It returns the frame, the bytes appendFrame would
// produce.
func frameChunk(buf *bytes.Buffer) []byte {
	payload := buf.Bytes()[len(frameRoom):]
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	buf.Write(sum[:])
	var head [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(head[:], uint64(len(payload)))
	frame := buf.Bytes()[len(frameRoom)-h:]
	copy(frame, head[:h])
	return frame
}

// rewriteWindow replaces the window log with the in-memory window up to
// the Data Store's Kept count upTo, by the snapshot's own
// atomic-replace rule: a crash mid-rewrite leaves the old log or the
// new one. The file held open for appends is the old one, so it is
// closed first and the new one opened after. The window goes to the
// temp file through the chunk buffer, as an append's frames do.
func (m *Manager) rewriteWindow(upTo uint64) error {
	if err := m.closeWindowLog(); err != nil {
		return fmt.Errorf("persist: window log: %w", err)
	}
	var n int
	var next uint64
	err := replaceFile(WindowLogPath(m.dir), func(w io.Writer) error {
		if _, err := w.Write(windowLogHeader()); err != nil {
			return err
		}
		var err error
		n, next, err = m.copyWindow(w, 0, upTo)
		return err
	})
	if err != nil {
		return fmt.Errorf("persist: window log rewrite: %w", err)
	}
	if err := m.openWindowLog(); err != nil {
		return err
	}
	m.winRecords, m.winSeq = n, next
	return nil
}

// openWindowLog opens the window log for the appends of sync points.
func (m *Manager) openWindowLog() error {
	f, err := os.OpenFile(WindowLogPath(m.dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: window log: %w", err)
	}
	m.win = f
	return nil
}

// closeWindowLog closes the window log if it is open. Every frame
// appended to it was fsynced when it was written.
func (m *Manager) closeWindowLog() error {
	if m.win == nil {
		return nil
	}
	err := m.win.Close()
	m.win = nil
	return err
}

// TearWindowLog is Tear for the window log: it chops the given number
// of bytes off the file's tail, leaving a torn final frame exactly as a
// power loss during a sync point's append would.
func TearWindowLog(dir string, dropBytes int64) error {
	return tearFile(WindowLogPath(dir), dropBytes)
}
