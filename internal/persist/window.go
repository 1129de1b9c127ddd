package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"path/filepath"

	"kalis/internal/trace"
)

// The Data Store window is kept in the log, beside the KB records: a
// window chunk is a log frame whose payload is opWindow, then one
// complete internal/trace stream of at most winChunk records, oldest
// first. A sync point appends the frames the Data Store took in since
// the previous one, a chunk to a log frame, so persisting the window
// costs O(new frames); a checkpoint writes the log again from the
// in-memory window.

// winChunk is the most records one window chunk carries. Every copy of
// the window — a sync point's, a checkpoint's — goes through the
// manager's one buffer a chunk at a time, so the buffer stays a chunk
// long however many frames pile up behind a slow fsync, and no copy of a
// whole window is ever held.
const winChunk = 256

// frameRoom is what the chunk buffer keeps free before the payload for
// its frame's uvarint length.
var frameRoom [binary.MaxVarintLen64]byte

// copyWindow writes to w the window's records from the Data Store's
// Kept count since up to upTo — those the window still holds — a chunk
// at a time, each chunk its own frame. A chunk is the Data Store's own
// record bytes, copied under its lock into the manager's buffer and
// framed where it lies: no frame is encoded, and once the buffer has
// grown to a chunk nothing is allocated. A chunk whose payload would
// pass maxFrame is halved until it fits; a single record that large is
// one internal/trace cannot read back, and is left out. It returns the
// bytes written and the Kept count they reach.
func (m *Manager) copyWindow(w io.Writer, since, upTo uint64) (written int64, next uint64, err error) {
	limit := uint64(winChunk)
	for next = since; next < upTo; {
		m.winBuf.Reset()
		m.winBuf.Write(frameRoom[:])
		m.winBuf.WriteByte(opWindow)
		k, to, err := m.store.SnapshotTo(&m.winBuf, next, int(min(upTo-next, limit)))
		if err != nil || k == 0 {
			return written, next, err
		}
		if m.winBuf.Len()-len(frameRoom) > maxFrame {
			if limit = uint64(k / 2); k == 1 {
				next, limit = to, winChunk // a record trace cannot read back
			}
			continue
		}
		frame := frameChunk(&m.winBuf)
		if _, err := w.Write(frame); err != nil {
			return written, next, err
		}
		written, next, limit = written+int64(len(frame)), to, winChunk
	}
	return written, next, nil
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

// windowLogPath is where state dirs written before the window joined
// the log kept it: window.kwin, read once, to migrate.
func windowLogPath(dir string) string { return filepath.Join(dir, "window.kwin") }

// windowLogHeader is window.kwin's header, magic and version.
var windowLogHeader = []byte("KWIN\x01")

// replayWindowLog reads a window.kwin byte stream — its header, then
// frames whose payloads are each a trace stream — and returns every
// record of its verified prefix, oldest first, plus that prefix's
// length; torn is set when bytes that did not verify followed it. No
// frame is ever applied in part. A bad header is an error.
func replayWindowLog(r io.Reader) (recs []*trace.Record, good int64, torn bool, err error) {
	good, torn, err = replayFrames(r, windowLogHeader, func(payload []byte) error {
		batch, err := trace.ReadAll(bytes.NewReader(payload))
		if err != nil {
			return err
		}
		recs = append(recs, batch...)
		return nil
	})
	if err != nil {
		return nil, 0, false, err
	}
	return recs, good, torn, nil
}
