package collective

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	mrand "math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kalis/internal/core/knowledge"
)

// wireFixture is a gossip message from K9 and its encoding, byte by
// byte: the layout wire.go documents.
var (
	wireFixtureMsg = wireMsg{
		kind:   kindGossip,
		sender: "K9",
		digest: []digestEntry{{creator: "K10", version: 1}, {creator: "K12", version: 5}},
		sections: []deltaSection{{
			creator: "K9", from: 0, upTo: 2,
			entries: []knowledge.Knowgget{
				{Label: "L", Value: "a", Version: 1},
				{Label: "L", Value: "b", Version: 2},
			},
		}},
	}
	wireFixture = bytes.Join([][]byte{
		{wireVersion, kindGossip},
		{0x02, 'K', '9'},            // sender, table entry 0
		{0x02},                      // 2 digest entries
		{0x00, 0x03, 'K', '1', '0'}, // shares 0 bytes, then "K10"
		{0x01},                      // version 1
		{0x02, 0x01, '2'},           // shares "K1", then "2"
		{0x05},                      // version 5
		{0x01},                      // 1 section
		{0x00},                      // creator: table[0], the sender
		{0x00, 0x02, 0x02},          // from 0, upTo 2, 2 entries
		{0x01, 0x01, 'L'},           // label: new entry 1, "L"
		{0x02, 0x00},                // entity: new entry 2, ""
		{0x01, 'a', 0x01},           // value "a", version 1
		{0x01, 0x02},                // label table[1], entity table[2]
		{0x01, 'b', 0x02},           // value "b", version 2
	}, nil)
)

func TestWireFixture(t *testing.T) {
	if got := encodeWire(&wireFixtureMsg); !bytes.Equal(got, wireFixture) {
		t.Fatalf("encode:\ngot  % x\nwant % x", got, wireFixture)
	}
	m, err := decodeWire(wireFixture)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*m, wireFixtureMsg) {
		t.Fatalf("decode:\ngot  %+v\nwant %+v", *m, wireFixtureMsg)
	}
}

// TestWireRejectsOverlongUvarint: 0x82 0x00 reads 2, which 0x02
// writes, so a message using it has a second encoding. The beacon
// below is refused under the version 1 layout (with its CRC trailer)
// and under the current one.
func TestWireRejectsOverlongUvarint(t *testing.T) {
	if v, _, err := readWireUvarint([]byte{0x82, 0x00}); err == nil {
		t.Fatalf("readWireUvarint read 82 00 as %d", v)
	}
	if v, rest, err := readWireUvarint([]byte{0x82, 0x01, 0xff}); err != nil || v != 130 || len(rest) != 1 {
		t.Fatalf("readWireUvarint(82 01 ff) = %d, % x, %v", v, rest, err)
	}
	v1 := []byte{0x01, kindBeacon, 0x82, 0x00, 'K', '9'}
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	for _, data := range [][]byte{v1, {wireVersion, kindBeacon, 0x82, 0x00, 'K', '9'}} {
		if m, err := decodeWire(data); err == nil {
			t.Errorf("decodeWire(% x) accepted %+v", data, m)
		}
	}
}

// TestWireRejectsNonCanonical: every way to write the fixture's
// message other than encodeWire's, and every broken variant of it, is
// malformed.
func TestWireRejectsNonCanonical(t *testing.T) {
	splice := func(at int, drop int, insert ...byte) []byte {
		out := append([]byte(nil), wireFixture[:at]...)
		out = append(out, insert...)
		return append(out, wireFixture[at+drop:]...)
	}
	at := func(sub ...byte) int { return bytes.Index(wireFixture, sub) }
	secondLabel := at(0x01, 0x02, 0x01, 'b')
	cases := map[string][]byte{
		"version 1":                       splice(0, 1, 0x01),
		"trailing byte":                   append(append([]byte(nil), wireFixture...), 0x00),
		"truncated":                       wireFixture[:len(wireFixture)-1],
		"literal repeating a table entry": splice(secondLabel, 1, 0x03, 0x01, 'L'),
		"literal repeating the sender":    splice(at(0x00, 0x00, 0x02, 0x02), 1, 0x01, 0x02, 'K', '9'),
		"index past the table":            splice(secondLabel, 1, 0x04),
		"shared prefix not the longest":   splice(at(0x02, 0x01, '2'), 3, 0x01, 0x02, '1', '2'),
		"shared prefix past the creator":  splice(at(0x02, 0x01, '2'), 3, 0x04, 0x00),
		"digest count past the bytes":     splice(at(0x02, 0x00, 0x03), 1, 0x7f),
		"overlong entry count":            splice(at(0x00, 0x02, 0x02)+2, 1, 0x82, 0x00),
	}
	for name, data := range cases {
		if m, err := decodeWire(data); err == nil {
			t.Errorf("%s: decodeWire(% x) accepted %+v", name, data, m)
		}
	}
}

// TestWireBoundsExpansion: front coding and the table let a small
// message name a long string thousands of times, so decoding refuses
// one whose creators, or whose knowggets' strings, pass
// maxDecodedBytes, before allocating them.
func TestWireBoundsExpansion(t *testing.T) {
	long := strings.Repeat("N", 20<<10)
	digest := make([]digestEntry, maxDigestEntries)
	for i := range digest {
		digest[i] = digestEntry{creator: long}
	}
	entries := make([]knowledge.Knowgget, maxSectionEntries)
	for i := range entries {
		entries[i] = knowledge.Knowgget{Label: long, Version: 1}
	}
	for name, m := range map[string]*wireMsg{
		"digest":    {kind: kindDeltaReq, sender: "K9", want: digest},
		"knowggets": {kind: kindDelta, sender: "K9", sections: []deltaSection{{creator: "K7", entries: entries}}},
	} {
		data := encodeWire(m)
		if _, err := decodeWire(data); err == nil {
			t.Errorf("%s: a %d B message naming %d MiB decoded", name, len(data), len(long)*maxDigestEntries>>20)
		}
	}
}

// TestWireRoundTrip: random messages, drawn from a small alphabet so
// that strings repeat and creators share prefixes, decode to
// themselves, and encode within their size bound.
func TestWireRoundTrip(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	word := func() string {
		const alphabet = "NK0123"
		b := make([]byte, rng.Intn(5))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	digest := func() []digestEntry {
		d := make([]digestEntry, rng.Intn(6))
		for i := range d {
			d[i] = digestEntry{creator: word(), version: rng.Uint64() >> rng.Intn(64)}
		}
		sort.Slice(d, func(i, j int) bool { return d[i].creator < d[j].creator })
		return d
	}
	sections := func() []deltaSection {
		s := make([]deltaSection, rng.Intn(4))
		for i := range s {
			s[i] = deltaSection{creator: word(), from: uint64(rng.Intn(300)), upTo: uint64(rng.Intn(300))}
			s[i].entries = make([]knowledge.Knowgget, rng.Intn(8))
			for j := range s[i].entries {
				s[i].entries[j] = knowledge.Knowgget{Label: word(), Entity: word(), Value: word(), Version: uint64(rng.Intn(1 << 20))}
			}
		}
		return s
	}
	for i := 0; i < 2000; i++ {
		m := wireMsg{kind: byte(1 + i%4), sender: word()}
		switch m.kind {
		case kindGossip:
			m.digest, m.sections = digest(), sections()
		case kindDeltaReq:
			m.want = digest()
		case kindDelta:
			m.sections = sections()
		}
		data := encodeWire(&m)
		if len(data) > sizeHint(&m) {
			t.Fatalf("%+v encodes to %d B, over its bound %d", m, len(data), sizeHint(&m))
		}
		got, err := decodeWire(data)
		if err != nil {
			t.Fatalf("decode % x of %+v: %v", data, m, err)
		}
		if again := encodeWire(got); !bytes.Equal(again, data) {
			t.Fatalf("re-encode of %+v:\ngot  % x\nwant % x", m, again, data)
		}
		if !sameMsg(got, &m) {
			t.Fatalf("decoded %+v, sent %+v", *got, m)
		}
	}
}

// sameMsg compares messages treating nil and empty slices alike.
func sameMsg(a, b *wireMsg) bool {
	return fmt.Sprint(a.kind, a.sender, a.digest, a.want, a.sections) ==
		fmt.Sprint(b.kind, b.sender, b.digest, b.want, b.sections)
}

// TestDeltaDatagramsFitTheUDPBuffer: sendDeltas cuts its messages by
// size as well as by entry count, so every sealed datagram fits the
// UDP transport's read buffer — with 4 096 entries of one creator,
// entries of 4 KiB strings, and one knowgget as long as the Knowledge
// Base accepts (knowledge.MaxCollectiveBytes).
// The receiver ends up holding every entry, with its watermarks at the
// creators' last versions: the cut sections still chain.
func TestDeltaDatagramsFitTheUDPBuffer(t *testing.T) {
	hub := NewHub()
	sender, err := NewNode(knowledge.NewBase("K1"), hub.Endpoint("a1"), "secret")
	if err != nil {
		t.Fatal(err)
	}
	kb2 := knowledge.NewBase("K2")
	ep := hub.Endpoint("a2")
	receiver, err := NewNode(kb2, ep, "secret")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	ep.SetHandler(func(from string, data []byte) {
		sizes = append(sizes, len(data))
		receiver.receive(from, data)
	})

	big := strings.Repeat("x", 4<<10)
	huge := strings.Repeat("y", knowledge.MaxCollectiveBytes-len("Huge"))
	last := map[string]uint64{"K3": 4096, "K4": 64, "K5": 1}
	for v := uint64(1); v <= last["K3"]; v++ {
		sender.kb.AcceptGossip("K3", knowledge.Knowgget{Label: fmt.Sprintf("L%d", v), Entity: fmt.Sprint(v), Value: "1", Creator: "K3", Version: v})
	}
	for v := uint64(1); v <= last["K4"]; v++ {
		sender.kb.AcceptGossip("K4", knowledge.Knowgget{Label: fmt.Sprint(v) + big, Entity: big, Value: big, Creator: "K4", Version: v})
	}
	sender.kb.AcceptGossip("K5", knowledge.Knowgget{Label: "Huge", Value: huge, Creator: "K5", Version: 1})

	sender.sendDeltas("a2", []digestEntry{{creator: "K3"}, {creator: "K4"}, {creator: "K5"}})
	for i, n := range sizes {
		if n > maxDatagram {
			t.Errorf("datagram %d of %d is %d B, over the %d B read buffer", i, len(sizes), n, maxDatagram)
		}
	}
	if _, _, malformed := receiver.Resilience(); malformed != 0 {
		t.Fatalf("%d malformed datagrams", malformed)
	}
	vv := receiver.VersionVector()
	for c, v := range last {
		if vv[c] != v || len(kb2.CollectiveSince(c, 0)) != int(v) {
			t.Errorf("creator %s: watermark %d, %d entries held; want %d of each", c, vv[c], len(kb2.CollectiveSince(c, 0)), v)
		}
	}
}

// TestLargestCollectiveFitsOneDatagram: a knowgget whose label, entity
// and value together are knowledge.MaxCollectiveBytes, from a creator
// and relayed by a sender whose names are 1 KiB each, seals into one
// datagram the UDP read buffer holds, and the receiver stores it.
func TestLargestCollectiveFitsOneDatagram(t *testing.T) {
	hub := NewHub()
	senderID, creatorID := strings.Repeat("S", 1<<10), strings.Repeat("C", 1<<10)
	sender, err := NewNode(knowledge.NewBase(senderID), hub.Endpoint("a1"), "secret")
	if err != nil {
		t.Fatal(err)
	}
	kb2 := knowledge.NewBase("K2")
	ep := hub.Endpoint("a2")
	receiver, err := NewNode(kb2, ep, "secret")
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	ep.SetHandler(func(from string, data []byte) {
		sizes = append(sizes, len(data))
		receiver.receive(from, data)
	})
	third := strings.Repeat("e", 1<<10)
	largest := func(label string) string {
		return strings.Repeat("v", knowledge.MaxCollectiveBytes-len(label)-len(third))
	}
	if !sender.kb.PutCollective("Own", third, largest("Own")) {
		t.Fatal("the largest allowed local knowgget was refused")
	}
	if !sender.kb.AcceptGossip("K3", knowledge.Knowgget{Label: "Relayed", Entity: third, Value: largest("Relayed"), Creator: creatorID, Version: 1}) {
		t.Fatal("the largest allowed relayed knowgget was refused")
	}

	sender.sendDeltas("a2", []digestEntry{{creator: senderID}, {creator: creatorID}})
	if len(sizes) != 2 {
		t.Fatalf("%d datagrams for two knowggets, want one each", len(sizes))
	}
	for i, n := range sizes {
		if n > maxDatagram {
			t.Errorf("datagram %d is %d B, over the %d B read buffer", i, n, maxDatagram)
		}
	}
	if _, _, malformed := receiver.Resilience(); malformed != 0 {
		t.Fatalf("%d malformed datagrams", malformed)
	}
	for _, key := range []string{knowledge.Knowgget{Creator: senderID, Label: "Own", Entity: third}.Key(), knowledge.Knowgget{Creator: creatorID, Label: "Relayed", Entity: third}.Key()} {
		if _, ok := kb2.Get(key); !ok {
			t.Errorf("the receiver does not hold %.20s…", key)
		}
	}
}
