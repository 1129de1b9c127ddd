package ieee802154

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRoundTripShortAddr(t *testing.T) {
	f := &Frame{
		Type:          FrameData,
		AckRequest:    true,
		PANIDCompress: true,
		Seq:           42,
		DstPAN:        0x1234,
		DstMode:       AddrShort,
		SrcMode:       AddrShort,
		DstShort:      0x0001,
		SrcShort:      0x0005,
		Payload:       []byte{0xde, 0xad, 0xbe, 0xef},
	}
	got, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != FrameData || got.Seq != 42 || got.DstShort != 1 || got.SrcShort != 5 {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.SrcPAN != 0x1234 {
		t.Errorf("PAN compression: SrcPAN = %#x, want 0x1234", got.SrcPAN)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("payload = %x, want %x", got.Payload, f.Payload)
	}
}

func TestRoundTripExtendedAddr(t *testing.T) {
	f := &Frame{
		Type:     FrameData,
		Seq:      7,
		DstPAN:   0xbeef,
		SrcPAN:   0xcafe,
		DstMode:  AddrExtended,
		SrcMode:  AddrExtended,
		DstExt:   0x0011223344556677,
		SrcExt:   0x8899aabbccddeeff,
		Payload:  []byte("hello"),
		Security: true,
	}
	got, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.DstExt != f.DstExt || got.SrcExt != f.SrcExt {
		t.Errorf("extended addrs: got %#x/%#x", got.DstExt, got.SrcExt)
	}
	if got.SrcPAN != 0xcafe || got.DstPAN != 0xbeef {
		t.Errorf("PANs: got %#x/%#x", got.SrcPAN, got.DstPAN)
	}
	if !got.Security {
		t.Error("security bit lost")
	}
}

func TestRoundTripAck(t *testing.T) {
	f := &Frame{Type: FrameAck, Seq: 99}
	got, err := Decode(f.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Type != FrameAck || got.Seq != 99 {
		t.Errorf("ack mismatch: %+v", got)
	}
	if got.DstMode != AddrNone || got.SrcMode != AddrNone {
		t.Errorf("ack should have no addresses: %+v", got)
	}
}

func TestDecodeCorruptFCS(t *testing.T) {
	f := &Frame{Type: FrameData, DstMode: AddrShort, SrcMode: AddrShort, DstShort: 1, SrcShort: 2, Payload: []byte{1, 2, 3}}
	raw := f.Encode()
	raw[len(raw)/2] ^= 0xff
	if _, err := Decode(raw); !errors.Is(err, ErrFCS) {
		t.Errorf("err = %v, want ErrFCS", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	for n := 0; n < 5; n++ {
		if _, err := Decode(make([]byte, n)); !errors.Is(err, ErrTruncated) {
			t.Errorf("len %d: err = %v, want ErrTruncated", n, err)
		}
	}
	// Frame claiming addresses but cut short (valid FCS over the stub).
	stub := []byte{0x41, 0x88, 0x01} // data frame, short dst+src per FCF bits
	stub[0] = 0x01
	stub[1] = 0x88 // dst short, src short
	fcs := CRC16(stub)
	raw := append(stub, byte(fcs), byte(fcs>>8))
	if _, err := Decode(raw); !errors.Is(err, ErrTruncated) {
		t.Errorf("short addressed frame: err = %v, want ErrTruncated", err)
	}
}

func TestFrameTypeString(t *testing.T) {
	cases := map[FrameType]string{
		FrameBeacon: "beacon", FrameData: "data", FrameAck: "ack",
		FrameCommand: "command", FrameType(9): "type(9)",
	}
	for ft, want := range cases {
		if got := ft.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ft, got, want)
		}
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// ITU-T CRC-16 (Kermit) of "123456789" is 0x2189.
	if got := CRC16([]byte("123456789")); got != 0x2189 {
		t.Errorf("CRC16 = %#04x, want 0x2189", got)
	}
}

// TestCRC16MatchesBitwise: the slicing-by-8 CRC16 is the same function
// as the bit-at-a-time definition — the FCS test accepts and rejects
// exactly the frames it did. Random inputs of every length from 0 to
// 300 cover every tail length after every number of 8-byte blocks.
func TestCRC16MatchesBitwise(t *testing.T) {
	bitwise := func(data []byte) uint16 {
		var crc uint16
		for _, b := range data {
			crc ^= uint16(b)
			for i := 0; i < 8; i++ {
				if crc&1 != 0 {
					crc = (crc >> 1) ^ 0x8408
				} else {
					crc >>= 1
				}
			}
		}
		return crc
	}
	prop := func(data []byte) bool { return CRC16(data) == bitwise(data) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for n := 0; n <= 300; n++ {
		for range 20 {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Uint32())
			}
			if got, want := CRC16(data), bitwise(data); got != want {
				t.Fatalf("CRC16(% x) = %#04x, the bitwise definition %#04x", data, got, want)
			}
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	prop := func(seq uint8, dst, src uint16, compress bool, payload []byte) bool {
		f := &Frame{
			Type:          FrameData,
			PANIDCompress: compress,
			Seq:           seq,
			DstPAN:        0x7777,
			SrcPAN:        0x7777,
			DstMode:       AddrShort,
			SrcMode:       AddrShort,
			DstShort:      dst,
			SrcShort:      src,
			Payload:       payload,
		}
		got, err := Decode(f.Encode())
		if err != nil {
			return false
		}
		return got.Seq == seq && got.DstShort == dst && got.SrcShort == src &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCorruptionDetected(t *testing.T) {
	// Flipping any single byte of an encoded frame must be caught by
	// the FCS (or, for header bytes, yield a structural error) — it
	// must never silently round-trip to a different payload.
	f := &Frame{Type: FrameData, DstMode: AddrShort, SrcMode: AddrShort,
		DstShort: 0x0a0b, SrcShort: 0x0c0d, Payload: []byte("payload-bytes")}
	raw := f.Encode()
	for i := range raw {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[i] ^= 0x55
		got, err := Decode(mut)
		if err != nil {
			continue
		}
		if bytes.Equal(got.Payload, f.Payload) && got.SrcShort == f.SrcShort && got.DstShort == f.DstShort && got.Seq == f.Seq {
			t.Errorf("byte %d corruption went fully undetected", i)
		}
	}
}
