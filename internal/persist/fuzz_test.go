package persist

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
)

// fuzzSnapshot is a well-formed snapshot the mutator can truncate,
// bit-flip and splice — in the parent format, Data Store section
// included, so the compatibility path is in the corpus too.
func fuzzSnapshot() []byte {
	return parentSnapshot(&Snapshot{
		Knowggets: []knowledge.Knowgget{
			{Creator: "K1", Label: "Multihop", Value: "true"},
			{Creator: "K2", Label: "SignalStrength", Entity: "Sensor@A", Value: "-67", Collective: true},
		},
		StaticLabels: []string{"Mobility"},
	}, []byte{'K', 'T', 'R', 'C', 1})
}

// fuzzJournal encodes a well-formed journal with one put and one
// delete record.
func fuzzJournal(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	jw, err := newJournalWriter(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	if err := jw.append(knowledge.OpPut, "",
		knowledge.Knowgget{Creator: "K1", Label: "A", Value: "1"}); err != nil {
		f.Fatal(err)
	}
	if err := jw.append(knowledge.OpDelete, "K1$A", knowledge.Knowgget{}); err != nil {
		f.Fatal(err)
	}
	if err := jw.close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	return raw
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
		kb := knowledge.NewBase("K1")
		kb.Restore(snap.Knowggets, snap.StaticLabels)
	})
}

// FuzzJournalReplay drives journal replay with arbitrary bytes: never
// a panic, and every accepted prefix must re-verify — replaying the
// first goodBytes again yields exactly the same entries with no
// truncation, which is what the post-crash restart relies on.
func FuzzJournalReplay(f *testing.F) {
	good := fuzzJournal(f)
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:journalHeaderLen])
	f.Add(append([]byte{}, good[:2]...))
	f.Add(append(good, 0x05, 0x00, 0x00))
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, goodBytes, torn, err := replayJournal(bytes.NewReader(data))
		if err != nil {
			if len(entries) != 0 || goodBytes != 0 {
				t.Fatalf("header error kept entries: %d, %d bytes", len(entries), goodBytes)
			}
			return
		}
		if goodBytes < journalHeaderLen || goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [%d,%d]", goodBytes, journalHeaderLen, len(data))
		}
		// The verified prefix is stable: truncating there and
		// replaying again must reproduce the same entries cleanly.
		again, againBytes, againTorn, err := replayJournal(bytes.NewReader(data[:goodBytes]))
		if err != nil || againTorn || againBytes != goodBytes {
			t.Fatalf("verified prefix did not re-verify: %v torn=%v bytes=%d/%d",
				err, againTorn, againBytes, goodBytes)
		}
		if !reflect.DeepEqual(entries, again) {
			t.Fatalf("replay of verified prefix diverged")
		}
		_ = torn
		// Applying the entries to a KB must never panic, whatever the
		// decoded contents.
		kb := knowledge.NewBase("K1")
		state := make(map[string]knowledge.Knowgget)
		for _, e := range entries {
			switch e.Op {
			case knowledge.OpPut:
				state[e.Knowgget.Key()] = e.Knowgget
			case knowledge.OpDelete:
				delete(state, e.Key)
			default:
				t.Fatalf("replay accepted unknown op %d", e.Op)
			}
		}
		ks := make([]knowledge.Knowgget, 0, len(state))
		for _, k := range state {
			ks = append(ks, k)
		}
		kb.Restore(ks, nil)
	})
}

// FuzzWindowLogLoad drives window-log replay with arbitrary bytes:
// never a panic, never part of a batch, and every accepted prefix must
// re-verify — replaying the first goodBytes again yields exactly the
// same records with no truncation, which is what appending behind a
// truncated tail relies on. (Length claims are bounded by maxSectionLen
// and bodies read through readExact: see readFrame.)
func FuzzWindowLogLoad(f *testing.F) {
	header := windowLogHeader()
	good := appendFrame(append([]byte{}, header...), windowTrace(f, windowFrames(f, 0, 3)))
	good = appendFrame(good, windowTrace(f, windowFrames(f, 3, 2)))
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:windowLogHeaderLen])
	f.Add(append([]byte{}, good[:2]...))
	f.Add(append(append([]byte{}, good...), 0xff, 0xff, 0xff, 0xff, 0x7f)) // a length claim far past the input
	f.Add(appendFrame(append([]byte{}, header...), []byte("not a trace stream")))
	flipped := append([]byte{}, good...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodBytes, torn, err := replayWindowLog(bytes.NewReader(data))
		if err != nil {
			if len(recs) != 0 || goodBytes != 0 {
				t.Fatalf("header error kept %d records, %d bytes", len(recs), goodBytes)
			}
			return
		}
		if goodBytes < windowLogHeaderLen || goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [%d,%d]", goodBytes, windowLogHeaderLen, len(data))
		}
		if !torn && goodBytes != int64(len(data)) {
			t.Fatalf("clean replay verified %d of %d bytes", goodBytes, len(data))
		}
		again, againBytes, againTorn, err := replayWindowLog(bytes.NewReader(data[:goodBytes]))
		if err != nil || againTorn || againBytes != goodBytes {
			t.Fatalf("verified prefix did not re-verify: %v torn=%v bytes=%d/%d",
				err, againTorn, againBytes, goodBytes)
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("replay of verified prefix diverged")
		}
		// Restoring the records into a Data Store must never panic,
		// whatever the decoded contents.
		datastore.New(8).Restore(recs)
	})
}
