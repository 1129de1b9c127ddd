package collective

// Binary wire format, version 2, for the anti-entropy gossip protocol,
// following the repo's compact-codec conventions (internal/trace,
// internal/persist): uvarint counts and length-prefixed strings. Each
// message names a repeated string once, through a per-message string
// table, and front-codes its sorted digest creators.
//
//	[0]     format version (wireVersion)
//	[1]     message kind
//	string  sender node ID, also entry 0 of the string table
//	kind-specific body:
//	  beacon:   (empty)
//	  gossip:   digest, delta sections (piggybacked dirty flush)
//	  deltaReq: digest (creator → since watermark, i.e. "send me
//	            everything newer than this")
//	  delta:    delta sections
//
//	string:  uvarint len, then len bytes
//	tstring: uvarint i into the message's string table: i below the
//	         table's length names table[i]; i equal to it adds a new
//	         entry, whose string follows; a larger i is malformed
//	digest:  uvarint n, then n × (uvarint shared, string suffix,
//	         uvarint version): the creator is the first shared bytes
//	         of the previous creator, then suffix (front coding)
//	delta sections: uvarint n, then n ×
//	  (tstring creator, uvarint from, uvarint upTo, uvarint m,
//	   m × knowgget)
//	knowgget: tstring label, tstring entity, string value,
//	          uvarint version  (creator implied by the section)
//
// Values stay literal: the fleet harness's producers write one value
// in a burst, and a table would win only on that shape of the
// simulation.
//
// There is no checksum: the payload travels sealed by AES-GCM (see
// seal), whose tag authenticates every byte, so a corrupted datagram
// fails open before it reaches this decoder. A version 1 message is
// malformed, so a fleet upgrades as a whole.
//
// A delta section is a *watermark-contiguous* state delta: it asserts
// "these entries are everything of creator C you are missing between
// version from and version upTo" (same-key superseded versions are
// elided — their effect is overwritten anyway). The receiver advances
// its watermark vv[C] to upTo only when vv[C] >= from; a gap means a
// previous chunk was lost, so values are still applied
// (version-guarded) but the watermark stays put and the next digest
// exchange pulls the gap. This keeps watermarks honest under loss and
// reordering: a node never claims contiguous knowledge it does not
// hold.
//
// Decoding is strict, fully validating and canonical — one message has
// exactly one encoding, the one encodeWire writes. It rejects a
// non-minimal uvarint, a new table entry that repeats one already in
// the table, an index past the table, a shared prefix shorter than the
// longest one, and trailing bytes. Counts are checked against the
// bytes left before anything is allocated for them, and nothing is
// applied until the whole message has decoded — malformed datagrams
// are counted and dropped, never partially applied.

import (
	"encoding/binary"
	"errors"

	"kalis/internal/core/knowledge"
)

const wireVersion = byte(2)

const (
	kindBeacon   = byte(1)
	kindGossip   = byte(2)
	kindDeltaReq = byte(3)
	kindDelta    = byte(4)
)

// Decode caps. A digest entry encodes in at least minDigestEntry bytes
// (shared length, suffix length, version), a section header in at
// least minSectionHeader (creator index, from, upTo, entry count) and
// a knowgget in at least minKnowgget (label index, entity index, value
// length, version), so a count the remaining bytes cannot hold is
// malformed before anything is allocated for it. Front coding and the
// table let a few bytes name a long string many times over, so the
// datagram's size no longer bounds what it decodes to: a digest's
// creators, and the strings of a message's knowggets (each with its
// section's creator), may add up to at most maxDecodedBytes. A node's
// own messages stay far below it: sendDeltas cuts them by the strings'
// whole length.
const (
	maxWireString     = 64 << 10
	maxDigestEntries  = 4096
	maxDeltaSections  = 256
	maxSectionEntries = 4096
	maxDecodedBytes   = 1 << 20

	minDigestEntry   = 3
	minSectionHeader = 4
	minKnowgget      = 4
)

// errWire is the single decode error: the receive path counts
// malformed datagrams, it never inspects why they were malformed.
var errWire = errors.New("collective: malformed wire message")

// digestEntry is one creator's slot in a version vector.
type digestEntry struct {
	creator string
	version uint64
}

// deltaSection carries one creator's watermark-contiguous state delta.
type deltaSection struct {
	creator    string
	from, upTo uint64
	entries    []knowledge.Knowgget // Creator implied by the section
}

// wireMsg is one decoded protocol message.
type wireMsg struct {
	kind     byte
	sender   string
	digest   []digestEntry  // kindGossip: sender's full version vector
	want     []digestEntry  // kindDeltaReq: creator → since watermark
	sections []deltaSection // kindGossip piggyback and kindDelta
}

// strTable maps each string in a message's string table to its
// position: the sender is 0, every other string the next position when
// first used. Encoder and decoder build the same table in the same
// order.
type strTable map[string]int32

// newStrTable starts a table holding sender, with room for n strings.
func newStrTable(sender string, n int) strTable {
	t := make(strTable, n)
	t[sender] = 0
	return t
}

// intern returns s's position in the table, adding s first when it is
// not there yet; added reports that it was.
func (t strTable) intern(s string) (pos int, added bool) {
	if p, ok := t[s]; ok {
		return int(p), false
	}
	t[s] = int32(len(t))
	return len(t) - 1, true
}

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendTableString(buf []byte, t strTable, s string) []byte {
	pos, added := t.intern(s)
	buf = binary.AppendUvarint(buf, uint64(pos))
	if added {
		buf = appendWireString(buf, s)
	}
	return buf
}

// sharedPrefix returns the length of the longest common prefix of a
// and b.
func sharedPrefix(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func appendDigest(buf []byte, d []digestEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d)))
	prev := ""
	for _, e := range d {
		k := sharedPrefix(prev, e.creator)
		buf = binary.AppendUvarint(buf, uint64(k))
		buf = appendWireString(buf, e.creator[k:])
		buf = binary.AppendUvarint(buf, e.version)
		prev = e.creator
	}
	return buf
}

func appendSections(buf []byte, sender string, secs []deltaSection) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(secs)))
	if len(secs) == 0 {
		return buf
	}
	// Every section adds at most its creator and two strings per
	// entry: size the table once.
	n := 1
	for _, s := range secs {
		n += 1 + 2*len(s.entries)
	}
	tab := newStrTable(sender, n)
	for _, s := range secs {
		buf = appendTableString(buf, tab, s.creator)
		buf = binary.AppendUvarint(buf, s.from)
		buf = binary.AppendUvarint(buf, s.upTo)
		buf = binary.AppendUvarint(buf, uint64(len(s.entries)))
		for i := range s.entries {
			k := &s.entries[i]
			buf = appendTableString(buf, tab, k.Label)
			buf = appendTableString(buf, tab, k.Entity)
			buf = appendWireString(buf, k.Value)
			buf = binary.AppendUvarint(buf, k.Version)
		}
	}
	return buf
}

// encodeWire serializes a message. It is on the gossip-round hot path,
// so it avoids fmt and writes into one buffer sized up front.
func encodeWire(m *wireMsg) []byte {
	buf := make([]byte, 0, sizeHint(m))
	buf = append(buf, wireVersion, m.kind)
	buf = appendWireString(buf, m.sender)
	switch m.kind {
	case kindGossip:
		buf = appendDigest(buf, m.digest)
		buf = appendSections(buf, m.sender, m.sections)
	case kindDeltaReq:
		buf = appendDigest(buf, m.want)
	case kindDelta:
		buf = appendSections(buf, m.sender, m.sections)
	}
	return buf
}

// Upper bounds on the encoded size of a message's parts, their strings
// included: a string length or a table index below 2^21 takes at most
// 3 bytes, a number at most 10. sendDeltas cuts messages by them and
// encodeWire sizes its buffer by them.

// wireHeaderBound bounds version, kind, sender and the body's (at
// most two) counts.
func wireHeaderBound(sender string) int { return 2 + 3 + len(sender) + 2*3 }

// wireDigestEntryBound bounds a digest entry: shared length, suffix,
// version.
func wireDigestEntryBound(creator string) int { return 3 + 3 + len(creator) + 10 }

// wireSectionBound bounds a section header: creator, from, upTo,
// entry count.
func wireSectionBound(creator string) int { return 3 + 3 + len(creator) + 10 + 10 + 3 }

// wireEntryBound bounds a knowgget: label, entity, value, version.
func wireEntryBound(k *knowledge.Knowgget) int {
	return 6 + len(k.Label) + 6 + len(k.Entity) + 3 + len(k.Value) + 10
}

// sizeHint bounds m's encoded size, up to a datagram.
func sizeHint(m *wireMsg) int {
	n := wireHeaderBound(m.sender)
	for _, e := range m.digest {
		n += wireDigestEntryBound(e.creator)
	}
	for _, e := range m.want {
		n += wireDigestEntryBound(e.creator)
	}
	for i := range m.sections {
		s := &m.sections[i]
		n += wireSectionBound(s.creator)
		for j := range s.entries {
			n += wireEntryBound(&s.entries[j])
		}
	}
	return min(n, maxDatagram)
}

// readWireUvarint reads one minimally encoded uvarint: a multi-byte
// encoding whose last byte is zero writes a value a shorter one could,
// and one message has one encoding.
func readWireUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 || (n > 1 && buf[n-1] == 0) {
		return 0, nil, errWire
	}
	return v, buf[n:], nil
}

// readWireBytes reads a length-prefixed string without copying it.
func readWireBytes(buf []byte) ([]byte, []byte, error) {
	n, buf, err := readWireUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > maxWireString || n > uint64(len(buf)) {
		return nil, nil, errWire
	}
	return buf[:n], buf[n:], nil
}

func readWireString(buf []byte) (string, []byte, error) {
	b, buf, err := readWireBytes(buf)
	return string(b), buf, err
}

// readTableString reads a tstring: a table index, or a new entry that
// must not repeat one the table already holds. strs holds the table's
// strings by position; a new one is appended.
func readTableString(buf []byte, t strTable, strs *[]string) (string, []byte, error) {
	i, buf, err := readWireUvarint(buf)
	switch {
	case err != nil:
		return "", nil, err
	case i < uint64(len(*strs)):
		return (*strs)[i], buf, nil
	case i > uint64(len(*strs)):
		return "", nil, errWire
	}
	s, buf, err := readWireString(buf)
	if err != nil {
		return "", nil, err
	}
	if _, added := t.intern(s); !added {
		return "", nil, errWire
	}
	*strs = append(*strs, s)
	return s, buf, nil
}

// readCount reads an element count, rejecting one above limit or one
// whose elements, at least minSize bytes each, cannot fit in buf.
func readCount(buf []byte, limit uint64, minSize int) (int, []byte, error) {
	n, buf, err := readWireUvarint(buf)
	if err != nil || n > limit || n > uint64(len(buf)/minSize) {
		return 0, nil, errWire
	}
	return int(n), buf, nil
}

// readDigest decodes a front-coded digest.
func readDigest(buf []byte) ([]digestEntry, []byte, error) {
	n, buf, err := readCount(buf, maxDigestEntries, minDigestEntry)
	if err != nil {
		return nil, nil, err
	}
	out := make([]digestEntry, n)
	var name []byte // the creator last decoded
	decoded := 0    // creator bytes decoded so far
	for i := range out {
		var k uint64
		var suffix []byte
		if k, buf, err = readWireUvarint(buf); err != nil {
			return nil, nil, err
		}
		if suffix, buf, err = readWireBytes(buf); err != nil {
			return nil, nil, err
		}
		// k must be the longest prefix shared with the previous
		// creator: no longer than it, and not followed by a byte the
		// suffix could have shared too.
		if k > uint64(len(name)) || (k < uint64(len(name)) && len(suffix) > 0 && suffix[0] == name[k]) ||
			k+uint64(len(suffix)) > maxWireString {
			return nil, nil, errWire
		}
		if decoded += int(k) + len(suffix); decoded > maxDecodedBytes {
			return nil, nil, errWire
		}
		name = append(name[:k], suffix...)
		out[i].creator = string(name)
		if out[i].version, buf, err = readWireUvarint(buf); err != nil {
			return nil, nil, err
		}
	}
	return out, buf, nil
}

func readSections(buf []byte, sender string) ([]deltaSection, []byte, error) {
	n, buf, err := readCount(buf, maxDeltaSections, minSectionHeader)
	if err != nil || n == 0 {
		return nil, buf, err
	}
	tab, strs := newStrTable(sender, 0), []string{sender}
	out := make([]deltaSection, n)
	decoded := 0 // string bytes of the knowggets decoded so far
	for i := range out {
		s := &out[i]
		if s.creator, buf, err = readTableString(buf, tab, &strs); err != nil {
			return nil, nil, err
		}
		if s.from, buf, err = readWireUvarint(buf); err != nil {
			return nil, nil, err
		}
		if s.upTo, buf, err = readWireUvarint(buf); err != nil {
			return nil, nil, err
		}
		var m int
		if m, buf, err = readCount(buf, maxSectionEntries, minKnowgget); err != nil {
			return nil, nil, err
		}
		s.entries = make([]knowledge.Knowgget, m)
		for j := range s.entries {
			k := &s.entries[j]
			if k.Label, buf, err = readTableString(buf, tab, &strs); err != nil {
				return nil, nil, err
			}
			if k.Entity, buf, err = readTableString(buf, tab, &strs); err != nil {
				return nil, nil, err
			}
			if k.Value, buf, err = readWireString(buf); err != nil {
				return nil, nil, err
			}
			if k.Version, buf, err = readWireUvarint(buf); err != nil {
				return nil, nil, err
			}
			if decoded += len(s.creator) + len(k.Label) + len(k.Entity) + len(k.Value); decoded > maxDecodedBytes {
				return nil, nil, errWire
			}
		}
	}
	return out, buf, nil
}

// decodeWire parses and fully validates one opened payload. It either
// returns a complete message or errWire — never a partial result.
func decodeWire(data []byte) (*wireMsg, error) {
	if len(data) < 3 { // version + kind + empty sender
		return nil, errWire
	}
	if data[0] != wireVersion {
		return nil, errWire
	}
	m := &wireMsg{kind: data[1]}
	buf := data[2:]
	var err error
	if m.sender, buf, err = readWireString(buf); err != nil {
		return nil, err
	}
	switch m.kind {
	case kindBeacon:
	case kindGossip:
		if m.digest, buf, err = readDigest(buf); err != nil {
			return nil, err
		}
		if m.sections, buf, err = readSections(buf, m.sender); err != nil {
			return nil, err
		}
	case kindDeltaReq:
		if m.want, buf, err = readDigest(buf); err != nil {
			return nil, err
		}
	case kindDelta:
		if m.sections, buf, err = readSections(buf, m.sender); err != nil {
			return nil, err
		}
	default:
		return nil, errWire
	}
	if len(buf) != 0 {
		return nil, errWire
	}
	return m, nil
}
