package persist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
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
// one complete internal/trace stream: the frames the Data Store took in
// between two sync points, oldest first. A sync point appends one batch
// and fsyncs it, so persisting the window costs O(new frames) where the
// snapshot's Data Store section cost O(window); the file is rewritten
// from the in-memory window, atomically, once it holds twice the
// window's capacity.

// replayWindowLog reads a window-log byte stream and returns every
// record of its verified prefix, oldest first, plus that prefix's
// length. A torn, checksum-failing or unparseable batch ends the replay
// at the last good offset with torn=true — a crash mid-append loses at
// most the batch being written, never an earlier one, and no batch is
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

// logWindowLocked makes the frames the Data Store took in since the
// last sync point durable: one appended, fsynced batch — or, when that
// batch would bring the log to twice the window's capacity, a rewrite.
// With no new frames it writes nothing. The batch is encoded into the
// manager's batch and frame buffers, which are kept from one sync point
// to the next, and appended to the log the manager holds open: once
// warm, a sync point allocates the same few objects however many frames
// it logs.
func (m *Manager) logWindowLocked() error {
	fresh := m.store.Total() - m.winSeq
	if fresh == 0 {
		return nil
	}
	if uint64(m.winRecords)+fresh >= 2*uint64(m.store.Capacity()) {
		return m.rewriteWindowLocked()
	}
	m.winBatch.Reset()
	n, total, err := m.store.SnapshotTo(&m.winBatch, m.winSeq)
	if err != nil {
		return err
	}
	m.winSeq = total
	if n == 0 {
		return nil // nothing loggable: synthetic captures only
	}
	m.winFrame = appendFrame(m.winFrame[:0], m.winBatch.Bytes())
	_, err = m.win.Write(m.winFrame)
	if err == nil {
		err = m.win.Sync()
	}
	if err != nil {
		return fmt.Errorf("persist: window log append: %w", err)
	}
	m.winRecords += n
	return nil
}

// rewriteWindowLocked replaces the window log with one batch holding
// the in-memory window, by the snapshot's own atomic-replace rule: a
// crash mid-rewrite leaves the old log or the new one. The file held
// open for appends is the old one, so it is closed first and the new
// one opened after. The rewrite's batch, a whole window, is not kept.
func (m *Manager) rewriteWindowLocked() error {
	var batch bytes.Buffer
	n, total, err := m.store.SnapshotTo(&batch, 0)
	if err != nil {
		return err
	}
	if err := m.closeWindowLog(); err != nil {
		return fmt.Errorf("persist: window log: %w", err)
	}
	err = replaceFile(WindowLogPath(m.dir), func(w io.Writer) error {
		log := windowLogHeader()
		if n > 0 {
			log = appendFrame(log, batch.Bytes())
		}
		_, err := w.Write(log)
		return err
	})
	if err != nil {
		return fmt.Errorf("persist: window log rewrite: %w", err)
	}
	if err := m.openWindowLog(); err != nil {
		return err
	}
	m.winRecords, m.winSeq = n, total
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

// closeWindowLog closes the window log if it is open. Every batch
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
// of bytes off the file's tail, leaving a torn final batch exactly as a
// power loss during a sync point's append would.
func TearWindowLog(dir string, dropBytes int64) error {
	return tearFile(WindowLogPath(dir), dropBytes)
}
