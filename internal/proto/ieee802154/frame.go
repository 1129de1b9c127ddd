// Package ieee802154 implements encoding and decoding of IEEE 802.15.4
// MAC frames: the link layer beneath ZigBee, 6LoWPAN and TinyOS/CTP
// traffic that Kalis overhears on its 802.15.4 capture interface.
//
// The implementation covers the 2006 revision's data/ack/beacon/command
// frame types with short (16-bit) and extended (64-bit) addressing, PAN
// ID compression, and the ITU-T CRC-16 frame check sequence.
package ieee802154

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FrameType is the 802.15.4 frame type from the frame control field.
type FrameType uint8

// Frame types defined by IEEE 802.15.4-2006.
const (
	FrameBeacon  FrameType = 0
	FrameData    FrameType = 1
	FrameAck     FrameType = 2
	FrameCommand FrameType = 3
)

// String returns the frame type name.
func (t FrameType) String() string {
	switch t {
	case FrameBeacon:
		return "beacon"
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameCommand:
		return "command"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// AddrMode is the addressing mode for the source or destination field.
type AddrMode uint8

// Addressing modes defined by IEEE 802.15.4-2006.
const (
	AddrNone     AddrMode = 0 // address absent
	AddrShort    AddrMode = 2 // 16-bit short address
	AddrExtended AddrMode = 3 // 64-bit extended address
)

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("ieee802154: truncated frame")
	ErrFCS       = errors.New("ieee802154: frame check sequence mismatch")
	ErrAddrMode  = errors.New("ieee802154: reserved addressing mode")
)

// Frame is a decoded IEEE 802.15.4 MAC frame.
type Frame struct {
	Type           FrameType
	Security       bool
	FramePending   bool
	AckRequest     bool
	PANIDCompress  bool
	Seq            uint8
	DstPAN, SrcPAN uint16
	DstMode        AddrMode
	SrcMode        AddrMode
	DstShort       uint16
	SrcShort       uint16
	DstExt         uint64
	SrcExt         uint64
	Payload        []byte
}

// LayerName implements packet.Layer.
func (f *Frame) LayerName() string { return "ieee802154" }

// fcf packs the frame control field.
func (f *Frame) fcf() uint16 {
	v := uint16(f.Type) & 0x7
	if f.Security {
		v |= 1 << 3
	}
	if f.FramePending {
		v |= 1 << 4
	}
	if f.AckRequest {
		v |= 1 << 5
	}
	if f.PANIDCompress {
		v |= 1 << 6
	}
	v |= uint16(f.DstMode&0x3) << 10
	v |= uint16(f.SrcMode&0x3) << 14
	return v
}

// Encode serialises the frame including the trailing 2-byte FCS.
func (f *Frame) Encode() []byte { return f.AppendEncode(make([]byte, 0, 32+len(f.Payload))) }

// EncodedLen is the number of bytes AppendEncode appends.
func (f *Frame) EncodedLen() int {
	n := 3 + len(f.Payload) + 2 // frame control, sequence number, payload, FCS
	if f.DstMode != AddrNone {
		n += 2 + addrLen(f.DstMode)
	}
	if f.SrcMode != AddrNone {
		if !f.PANIDCompress {
			n += 2
		}
		n += addrLen(f.SrcMode)
	}
	return n
}

// addrLen is the number of bytes appendAddr appends for mode.
func addrLen(mode AddrMode) int {
	switch mode {
	case AddrShort:
		return 2
	case AddrExtended:
		return 8
	default:
		return 0
	}
}

// AppendEncode appends the encoded frame, FCS included, to dst and
// returns the extended slice; the bytes of dst before it are left as
// they were.
func (f *Frame) AppendEncode(dst []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, f.fcf())
	dst = append(dst, f.Seq)
	if f.DstMode != AddrNone {
		dst = binary.LittleEndian.AppendUint16(dst, f.DstPAN)
		dst = appendAddr(dst, f.DstMode, f.DstShort, f.DstExt)
	}
	if f.SrcMode != AddrNone {
		if !f.PANIDCompress {
			dst = binary.LittleEndian.AppendUint16(dst, f.SrcPAN)
		}
		dst = appendAddr(dst, f.SrcMode, f.SrcShort, f.SrcExt)
	}
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint16(dst, CRC16(dst[start:]))
}

func appendAddr(buf []byte, mode AddrMode, short uint16, ext uint64) []byte {
	switch mode {
	case AddrShort:
		return binary.LittleEndian.AppendUint16(buf, short)
	case AddrExtended:
		return binary.LittleEndian.AppendUint64(buf, ext)
	default:
		return buf
	}
}

// Decode parses an IEEE 802.15.4 frame into a new Frame, including FCS
// verification.
func Decode(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := DecodeInto(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// DecodeInto parses an IEEE 802.15.4 frame into f, including FCS
// verification, overwriting every field; Payload aliases b. f is
// unspecified after an error.
func DecodeInto(f *Frame, b []byte) error {
	if len(b) < 5 { // fcf + seq + fcs
		return ErrTruncated
	}
	body, fcsWant := b[:len(b)-2], binary.LittleEndian.Uint16(b[len(b)-2:])
	if CRC16(body) != fcsWant {
		return ErrFCS
	}
	fcf := binary.LittleEndian.Uint16(body[0:2])
	*f = Frame{
		Type:          FrameType(fcf & 0x7),
		Security:      fcf&(1<<3) != 0,
		FramePending:  fcf&(1<<4) != 0,
		AckRequest:    fcf&(1<<5) != 0,
		PANIDCompress: fcf&(1<<6) != 0,
		DstMode:       AddrMode((fcf >> 10) & 0x3),
		SrcMode:       AddrMode((fcf >> 14) & 0x3),
		Seq:           body[2],
	}
	if f.DstMode == 1 || f.SrcMode == 1 {
		return ErrAddrMode
	}
	rest := body[3:]
	var err error
	if f.DstMode != AddrNone {
		if len(rest) < 2 {
			return ErrTruncated
		}
		f.DstPAN = binary.LittleEndian.Uint16(rest)
		rest = rest[2:]
		rest, f.DstShort, f.DstExt, err = readAddr(rest, f.DstMode)
		if err != nil {
			return err
		}
	}
	if f.SrcMode != AddrNone {
		if !f.PANIDCompress {
			if len(rest) < 2 {
				return ErrTruncated
			}
			f.SrcPAN = binary.LittleEndian.Uint16(rest)
			rest = rest[2:]
		} else {
			f.SrcPAN = f.DstPAN
		}
		rest, f.SrcShort, f.SrcExt, err = readAddr(rest, f.SrcMode)
		if err != nil {
			return err
		}
	}
	f.Payload = rest
	return nil
}

func readAddr(b []byte, mode AddrMode) (rest []byte, short uint16, ext uint64, err error) {
	switch mode {
	case AddrShort:
		if len(b) < 2 {
			return nil, 0, 0, ErrTruncated
		}
		return b[2:], binary.LittleEndian.Uint16(b), 0, nil
	case AddrExtended:
		if len(b) < 8 {
			return nil, 0, 0, ErrTruncated
		}
		return b[8:], 0, binary.LittleEndian.Uint64(b), nil
	default:
		return b, 0, 0, nil
	}
}

// CRC16 computes the ITU-T CRC-16 (polynomial 0x1021, LSB-first) used
// as the 802.15.4 frame check sequence: eight bytes at a time through
// crcTables (slicing-by-8), then four, then the last few a byte at a
// time.
func CRC16(data []byte) uint16 {
	var crc uint16
	t := &crcTables
	for ; len(data) >= 8; data = data[8:] {
		x := binary.LittleEndian.Uint64(data) ^ uint64(crc)
		crc = t[7][byte(x)] ^ t[6][byte(x>>8)] ^ t[5][byte(x>>16)] ^ t[4][byte(x>>24)] ^
			t[3][byte(x>>32)] ^ t[2][byte(x>>40)] ^ t[1][byte(x>>48)] ^ t[0][byte(x>>56)]
	}
	if len(data) >= 4 {
		x := binary.LittleEndian.Uint32(data) ^ uint32(crc)
		crc = t[3][byte(x)] ^ t[2][byte(x>>8)] ^ t[1][byte(x>>16)] ^ t[0][byte(x>>24)]
		data = data[4:]
	}
	for _, b := range data {
		crc = crc>>8 ^ t[0][byte(crc)^b]
	}
	return crc
}

// crcTables[0][v] is the CRC register after shifting the byte v through
// the reflected polynomial 0x8408, and crcTables[k][v] after shifting v
// followed by k zero bytes.
var crcTables = func() (t [8][256]uint16) {
	for v := range t[0] {
		crc := uint16(v)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0x8408
			} else {
				crc >>= 1
			}
		}
		t[0][v] = crc
	}
	for k := 1; k < 8; k++ {
		for v := range t[k] {
			prev := t[k-1][v]
			t[k][v] = prev>>8 ^ t[0][byte(prev)]
		}
	}
	return t
}()
