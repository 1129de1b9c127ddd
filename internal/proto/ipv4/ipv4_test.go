package ipv4

import (
	"bytes"
	"encoding/binary"
	"errors"
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
