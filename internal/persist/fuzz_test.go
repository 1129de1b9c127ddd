package persist

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"kalis/internal/core/knowledge"
)

// fuzzSnapshot is a well-formed snapshot the mutator can truncate,
// bit-flip and splice — with the Data Store section older commits
// wrote, so the path that skips it is in the corpus too.
func fuzzSnapshot() []byte {
	return parentSnapshot(&Snapshot{
		Knowggets: []knowledge.Knowgget{
			{Creator: "K1", Label: "Multihop", Value: "true"},
			{Creator: "K2", Label: "SignalStrength", Entity: "Sensor@A", Value: "-67", Collective: true},
		},
		StaticLabels: []string{"Mobility"},
	}, []byte{'K', 'T', 'R', 'C', 1})
}

// fuzzJournal encodes a well-formed log with one put and one delete
// record.
func fuzzJournal() []byte {
	log := append([]byte{}, logHeader...)
	log = appendFrame(log, append([]byte{knowledge.OpPut}, appendKnowgget(nil, knowledge.Knowgget{Creator: "K1", Label: "A", Value: "1"})...))
	return appendFrame(log, append([]byte{knowledge.OpDelete}, appendString(nil, "K1$A")...))
}

// FuzzSnapshotLoad drives the snapshot decoder with arbitrary bytes:
// it must never panic, and on any error the caller-visible contract
// holds — all-or-nothing, so a Restore driven by the result can never
// leave a partially-applied KB.
func FuzzSnapshotLoad(f *testing.F) {
	good := fuzzSnapshot()
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append([]byte("garbage"), good...))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			if snap != nil {
				t.Fatalf("error %v returned a partial snapshot", err)
			}
			return
		}
		// A decoded snapshot must re-encode and decode to the same
		// state (the KB restore path depends on this fixed point).
		// Compare via the canonical encoding: decode may return nil vs
		// empty slices interchangeably for an empty section.
		enc := EncodeSnapshotBytes(snap)
		again, err := DecodeSnapshot(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot rejected: %v", err)
		}
		if !bytes.Equal(enc, EncodeSnapshotBytes(again)) {
			t.Fatalf("re-encode round trip diverged:\n%+v\n%+v", snap, again)
		}
		// And it must load into a KB without panicking.
		state := make(map[string]knowledge.Knowgget, len(snap.Knowggets))
		for _, k := range snap.Knowggets {
			state[k.Key()] = k
		}
		knowledge.NewBase("K1").Restore(state, snap.StaticLabels)
	})
}

// FuzzJournalReplay drives log replay with arbitrary bytes: never a
// panic, a clean end only where nothing but zeros — a preallocated tail
// — follows the verified prefix, and every accepted prefix must
// re-verify — replaying the first goodBytes again yields exactly the
// same entries with no truncation, which is what the post-crash
// restart, appending behind a truncated tail, relies on. The window
// frames of older commits' logs, which replay skips, are in the corpus
// (testdata holds such a log too). (Length claims are bounded by
// maxFrame and bodies read through readExact: see readFrame.)
func FuzzJournalReplay(f *testing.F) {
	good := fuzzJournal()
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:journalHeaderLen])
	f.Add(append([]byte{}, good[:2]...))
	f.Add(append(good, 0x05, 0x00, 0x00))
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	// Window chunks between the KB records, torn, bit-flipped, claiming
	// a length far past the input, or checksummed but no trace stream.
	chunks := append(append(append([]byte{}, good...), windowChunk(f, 0, 3)...), windowChunk(f, 3, 2)...)
	chunks = appendFrame(chunks, append([]byte{knowledge.OpPut}, appendKnowgget(nil, knowledge.Knowgget{Creator: "K1", Label: "B", Value: "2"})...))
	f.Add(chunks)
	f.Add(chunks[:len(chunks)-20])
	flipped = append([]byte{}, chunks...)
	flipped[len(good)+40] ^= 0x10
	f.Add(flipped)
	f.Add(append(append([]byte{}, chunks...), 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add(appendFrame(append([]byte{}, good...), []byte{opWindow, 'n', 'o', 't', ' ', 'a', ' ', 't', 'r', 'a', 'c', 'e'}))
	// The preallocated tail of a log that was not stopped: zeros behind
	// the last frame, a clean end; and a run of zeros with a frame behind
	// it, as a power cut leaves when a later page reached the disk and an
	// earlier one did not, torn.
	zeros := make([]byte, 64)
	f.Add(append(append([]byte{}, chunks...), zeros...))
	f.Add(append(append(append([]byte{}, good...), zeros...), windowChunk(f, 0, 1)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := replayJournal(data)
		if err != nil {
			if len(log.entries) != 0 || log.good != 0 {
				t.Fatalf("header error kept %d entries, %d bytes", len(log.entries), log.good)
			}
			return
		}
		if log.good < journalHeaderLen || log.good > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [%d,%d]", log.good, journalHeaderLen, len(data))
		}
		if !log.torn && slices.ContainsFunc(data[log.good:], func(b byte) bool { return b != 0 }) {
			t.Fatalf("clean replay verified %d of %d bytes, and not zeros are behind them", log.good, len(data))
		}
		// The verified prefix is stable: truncating there and
		// replaying again must reproduce the same contents cleanly.
		again, err := replayJournal(data[:log.good])
		if err != nil || again.torn || again.good != log.good {
			t.Fatalf("verified prefix did not re-verify: %v torn=%v bytes=%d/%d",
				err, again.torn, again.good, log.good)
		}
		if !reflect.DeepEqual(log.entries, again.entries) {
			t.Fatalf("replay of verified prefix diverged")
		}
		// Applying the entries to a KB must never panic, whatever the
		// decoded contents.
		kb := knowledge.NewBase("K1")
		state := make(map[string]knowledge.Knowgget)
		for _, e := range log.entries {
			switch e.Op {
			case knowledge.OpPut:
				state[e.Knowgget.Key()] = e.Knowgget
			case knowledge.OpDelete:
				delete(state, e.Key)
			default:
				t.Fatalf("replay accepted unknown op %d", e.Op)
			}
		}
		kb.Restore(state, nil)
	})
}
