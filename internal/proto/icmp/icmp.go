// Package icmp implements ICMP echo request/reply messages: the raw
// material of the ICMP Flood and Smurf attacks at the heart of the
// paper's working example (§III-A1) and first evaluation scenario.
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kalis/internal/proto/ipv4"
)

// Message types.
const (
	TypeEchoReply   uint8 = 0
	TypeEchoRequest uint8 = 8
)

// Errors returned by Decode.
var (
	ErrTruncated = errors.New("icmp: truncated message")
	ErrChecksum  = errors.New("icmp: checksum mismatch")
)

// Message is a decoded ICMP message.
type Message struct {
	Type, Code uint8
	ID, Seq    uint16
	Payload    []byte
}

// LayerName implements packet.Layer.
func (m *Message) LayerName() string { return "icmp" }

// String renders a compact human-readable form.
func (m *Message) String() string {
	return fmt.Sprintf("icmp type=%d code=%d id=%d seq=%d", m.Type, m.Code, m.ID, m.Seq)
}

// IsEchoRequest reports whether the message is an echo request.
func (m *Message) IsEchoRequest() bool { return m.Type == TypeEchoRequest }

// IsEchoReply reports whether the message is an echo reply.
func (m *Message) IsEchoReply() bool { return m.Type == TypeEchoReply }

// Encode serialises the message, computing the checksum.
func (m *Message) Encode() []byte {
	buf := make([]byte, 8+len(m.Payload))
	buf[0] = m.Type
	buf[1] = m.Code
	binary.BigEndian.PutUint16(buf[4:6], m.ID)
	binary.BigEndian.PutUint16(buf[6:8], m.Seq)
	copy(buf[8:], m.Payload)
	binary.BigEndian.PutUint16(buf[2:4], ipv4.Checksum(buf))
	return buf
}

// Decode parses an ICMP message into a new Message and verifies its
// checksum.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses an ICMP message into dst and verifies its checksum,
// overwriting every field; Payload aliases b. dst is unspecified after
// an error.
func DecodeInto(dst *Message, b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	if ipv4.Checksum(b) != 0 {
		return ErrChecksum
	}
	*dst = Message{
		Type: b[0],
		Code: b[1],
		ID:   binary.BigEndian.Uint16(b[4:6]),
		Seq:  binary.BigEndian.Uint16(b[6:8]),
	}
	if len(b) > 8 {
		dst.Payload = b[8:]
	}
	return nil
}
