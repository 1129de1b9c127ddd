// Package ble implements a simplified Bluetooth Low Energy link layer:
// advertising PDUs (the beacons an August-style smart lock broadcasts)
// and data PDUs carrying opaque encrypted ATT traffic. Kalis overhears
// these on its Bluetooth capture interface; payloads are opaque, but
// advertising cadence and RSSI are observable.
package ble

import (
	"errors"
	"fmt"

	"kalis/internal/packet"
)

// PDUType is the BLE PDU type.
type PDUType uint8

// PDU types used by the simulated devices.
const (
	PDUAdvInd     PDUType = 0x0 // connectable undirected advertising
	PDUAdvNonConn PDUType = 0x2 // non-connectable advertising
	PDUScanReq    PDUType = 0x3
	PDUScanRsp    PDUType = 0x4
	PDUConnectReq PDUType = 0x5
	PDUData       PDUType = 0xf // (simplified) data channel PDU
)

// Address is a 48-bit BLE device address.
type Address [6]byte

// String renders the address in colon-hex form.
func (a Address) String() string { return packet.ColonHex(a) }

// ErrTruncated is returned for PDUs shorter than the header.
var ErrTruncated = errors.New("ble: truncated PDU")

// PDU is a decoded (simplified) BLE PDU.
type PDU struct {
	Type    PDUType
	Adv     Address
	Payload []byte
}

// LayerName implements packet.Layer.
func (p *PDU) LayerName() string { return "ble" }

// String renders a compact human-readable form.
func (p *PDU) String() string {
	return fmt.Sprintf("ble pdu=0x%x adv=%s len=%d", uint8(p.Type), p.Adv, len(p.Payload))
}

// IsAdvertising reports whether the PDU is advertising-channel traffic.
func (p *PDU) IsAdvertising() bool { return p.Type != PDUData }

// Encode serialises the PDU.
func (p *PDU) Encode() []byte { return p.AppendEncode(make([]byte, 0, 8+len(p.Payload))) }

// AppendEncode appends the encoded PDU to dst and returns the extended
// slice; the bytes of dst before it are left as they were.
func (p *PDU) AppendEncode(dst []byte) []byte {
	dst = append(dst, uint8(p.Type), uint8(len(p.Payload)))
	dst = append(dst, p.Adv[:]...)
	return append(dst, p.Payload...)
}

// Decode parses a simplified BLE PDU into a new PDU.
func Decode(b []byte) (*PDU, error) {
	p := new(PDU)
	if err := DecodeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto parses a simplified BLE PDU into dst, overwriting every
// field; Payload aliases b. dst is unspecified after an error.
func DecodeInto(dst *PDU, b []byte) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	n := int(b[1])
	if len(b) < 8+n {
		return ErrTruncated
	}
	*dst = PDU{Type: PDUType(b[0]), Adv: Address(b[2:8])}
	if n > 0 {
		dst.Payload = b[8 : 8+n]
	}
	return nil
}
