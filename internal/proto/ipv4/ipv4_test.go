package ipv4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net/netip"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestRoundTrip(t *testing.T) {
	h := &Header{
		TOS:      0,
		ID:       777,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      addr("192.168.1.10"),
		Dst:      addr("34.1.2.3"),
		Payload:  []byte("segment"),
	}
	got, err := Decode(h.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TTL != 64 || got.Protocol != ProtoTCP || got.ID != 777 {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, h.Payload) {
		t.Error("payload mismatch")
	}
}

func TestChecksumRejection(t *testing.T) {
	h := &Header{TTL: 64, Protocol: ProtoUDP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	raw := h.Encode()
	raw[8] ^= 0xff // corrupt TTL without fixing checksum
	if _, err := Decode(raw); !errors.Is(err, ErrChecksum) {
		t.Errorf("err = %v, want ErrChecksum", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x65 // version 6
	if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
	// Total length larger than buffer.
	h := &Header{TTL: 1, Protocol: 1, Src: addr("1.1.1.1"), Dst: addr("2.2.2.2"), Payload: []byte("xxxx")}
	raw := h.Encode()
	if _, err := Decode(raw[:22]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated payload: %v", err)
	}
}

// TestTotalLengthShorterThanHeader: a total length below the header
// length, under a checksum that verifies, is a truncated packet — it
// used to reach the payload slice expression reversed and panic.
func TestTotalLengthShorterThanHeader(t *testing.T) {
	h := &Header{TTL: 64, Protocol: ProtoICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2"), Payload: []byte("ping")}
	raw := h.Encode()
	binary.BigEndian.PutUint16(raw[2:4], 12)
	raw[10], raw[11] = 0, 0
	binary.BigEndian.PutUint16(raw[10:12], Checksum(raw[:20]))
	if _, err := Decode(raw); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
}

// TestSumInPieces: Sum over an even-length piece and then the rest is
// the sum over the two joined, which is what lets tcp checksum a
// pseudo-header and a segment without copying them together.
func TestSumInPieces(t *testing.T) {
	prop := func(head [12]byte, tail []byte) bool {
		joined := append(head[:], tail...)
		return Fold(Sum(Sum(0, head[:]), tail)) == Checksum(joined)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumRFC1071(t *testing.T) {
	// Classic example from RFC 1071 materials.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
	// Odd-length input exercises the trailing-byte path.
	if got := Checksum([]byte{0x01}); got != ^uint16(0x0100) {
		t.Errorf("odd Checksum = %#04x", got)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(id uint16, ttl uint8, a, b [4]byte, payload []byte) bool {
		h := &Header{
			ID: id, TTL: ttl, Protocol: ProtoUDP,
			Src: netip.AddrFrom4(a), Dst: netip.AddrFrom4(b),
			Payload: payload,
		}
		got, err := Decode(h.Encode())
		if err != nil {
			return false
		}
		return got.ID == id && got.TTL == ttl && got.Src == h.Src &&
			got.Dst == h.Dst && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sum16 is the plain RFC 1071 loop Sum replaced: one big-endian 16-bit
// word per step into a 32-bit total. It is kept as the reference Sum
// must fold the same as.
func sum16(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// TestSumMatchesReference: Sum folds to what the 16-bit loop does on
// every length from 0 to 1 600 bytes — random, all-0x00 and all-0xFF
// contents, from a zero and a random running sum — and over two pieces
// split at an even offset.
func TestSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]byte, 1600)
	zeros := make([]byte, 1600)
	ones := bytes.Repeat([]byte{0xff}, 1600)
	for n := 0; n <= len(buf); n++ {
		for i := range buf[:n] {
			buf[i] = byte(rng.Uint32())
		}
		for _, b := range [][]byte{buf[:n], zeros[:n], ones[:n]} {
			for _, start := range []uint32{0, rng.Uint32() >> 1} {
				if got, want := Fold(Sum(start, b)), Fold(sum16(start, b)); got != want {
					t.Fatalf("len %d from %#x: Sum folds to %#04x, the 16-bit loop to %#04x", n, start, got, want)
				}
			}
			split := rng.IntN(n/2+1) * 2
			if got, want := Fold(Sum(Sum(0, b[:split]), b[split:])), Fold(sum16(0, b)); got != want {
				t.Fatalf("len %d split at %d: Sum in pieces folds to %#04x, the 16-bit loop to %#04x", n, split, got, want)
			}
		}
	}
}

func BenchmarkSum(b *testing.B) {
	buf := make([]byte, 84)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		Fold(Sum(0, buf))
	}
}
