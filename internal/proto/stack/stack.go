// Package stack assembles and disassembles complete frames for each
// capture medium. It is the parsing core of Kalis' Communication
// System: simulated devices use the Build* helpers to emit raw bytes
// onto the simulated medium, and the promiscuous sniffer uses Decode to
// turn overheard raw bytes back into a packet.Captured with a fully
// decoded layer stack, traffic-kind classification and identity
// handles.
//
// Identity conventions: Captured.Src/Dst carry the highest-layer
// (end-to-end) addresses present in the frame, while
// Captured.Transmitter carries the per-hop link-layer source — the node
// that physically radiated this transmission, which is also the node
// the observed RSSI belongs to.
package stack

import (
	"kalis/internal/packet"
	"kalis/internal/proto/ble"
	"kalis/internal/proto/ctp"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/ipv4"
	"kalis/internal/proto/sixlowpan"
	"kalis/internal/proto/tcp"
	"kalis/internal/proto/udp"
	"kalis/internal/proto/wifi"
	"kalis/internal/proto/zigbee"
)

// Decode parses raw bytes captured on the given medium into the layer
// stack, filling Src, Dst, Transmitter, their handles and Kind of the
// returned Captured. Capture metadata (Time, RSSI) is left for the
// caller.
//
// Ownership: the Captured and all its layers are ONE heap allocation,
// sized to the layers this frame carries, and every Payload in it
// aliases raw — the caller gives raw away and must not write to it
// again. Layers are immutable after decode. Nothing is pooled or
// reused: the frame belongs to the caller, who may retain it (a sharded
// node's ingest ring holds it until a shard dispatches it). Safe from
// any goroutine.
func Decode(medium packet.Medium, raw []byte) (*packet.Captured, error) {
	switch medium {
	case packet.MediumIEEE802154:
		return decode802154(raw)
	case packet.MediumWiFi, packet.MediumWired:
		return decodeWiFi(medium, raw)
	case packet.MediumBluetooth:
		return decodeBLE(raw)
	default:
		return nil, mediumError(medium)
	}
}

// mediumError reports a medium Decode has no parser for.
type mediumError packet.Medium

func (e mediumError) Error() string {
	return "stack: unsupported medium " + packet.Medium(e).String()
}

// macError prefixes an 802.15.4 MAC decode error with the medium;
// errors.Is sees the cause.
type macError struct{ err error }

func (e macError) Error() string { return "802.15.4: " + e.err.Error() }
func (e macError) Unwrap() error { return e.err }

// The frame values: a Captured, the backing array of its Layers and the
// layer structs themselves, one type per stack shape so that a frame
// pays for the layers it carries and no others (a sharded node's
// ingest rings hold thousands of them). Decode parses the headers into locals — which
// keeps error returns free — and captureN moves them into one new
// frame value.
type (
	frame1[A any] struct {
		packet.Captured
		layers [1]packet.Layer
		a      A
	}
	frame2[A, B any] struct {
		packet.Captured
		layers [2]packet.Layer
		a      A
		b      B
	}
	frame3[A, B, C any] struct {
		packet.Captured
		layers [3]packet.Layer
		a      A
		b      B
		c      C
	}
	// lowpanFrame is the 6LoWPAN shape. sixlowpan.Frame points into
	// itself and cannot be moved, so it is decoded in place; the third
	// layer slot is for the RPL message it may hold.
	lowpanFrame struct {
		packet.Captured
		layers [3]packet.Layer
		mac    ieee802154.Frame
		lp     sixlowpan.Frame
	}
)

// newFrame is where a decoded frame's memory comes from.
func newFrame[F any]() *F {
	//lint:ignore hotalloc the frame value is the one allocation of a decoded frame; it belongs to the caller, and the ingest ring retains it, so it can be neither pooled nor reused
	return new(F)
}

// layerPtr is *T for a layer struct T.
type layerPtr[T any] interface {
	*T
	packet.Layer
}

func capture1[A any, PA layerPtr[A]](c *packet.Captured, a *A) *packet.Captured {
	f := newFrame[frame1[A]]()
	f.Captured, f.a = *c, *a
	f.layers = [1]packet.Layer{PA(&f.a)}
	f.Layers = f.layers[:]
	return &f.Captured
}

func capture2[A, B any, PA layerPtr[A], PB layerPtr[B]](c *packet.Captured, a *A, b *B) *packet.Captured {
	f := newFrame[frame2[A, B]]()
	f.Captured, f.a, f.b = *c, *a, *b
	f.layers = [2]packet.Layer{PA(&f.a), PB(&f.b)}
	f.Layers = f.layers[:]
	return &f.Captured
}

func capture3[A, B, C any, PA layerPtr[A], PB layerPtr[B], PC layerPtr[C]](c *packet.Captured, a *A, b *B, l4 *C) *packet.Captured {
	f := newFrame[frame3[A, B, C]]()
	f.Captured, f.a, f.b, f.c = *c, *a, *b, *l4
	f.layers = [3]packet.Layer{PA(&f.a), PB(&f.b), PC(&f.c)}
	f.Layers = f.layers[:]
	return &f.Captured
}

// setEnds sets the capture's end-to-end source and destination.
func setEnds(c *packet.Captured, src, dst ident) {
	c.Src, c.SrcH, c.Dst, c.DstH = src.id, src.h, dst.id, dst.h
}

// setSrc sets the capture's end-to-end source.
func setSrc(c *packet.Captured, src ident) { c.Src, c.SrcH = src.id, src.h }

func decode802154(raw []byte) (*packet.Captured, error) {
	var mac ieee802154.Frame
	if err := ieee802154.DecodeInto(&mac, raw); err != nil {
		return nil, macError{err}
	}
	src := shortIdent(mac.SrcShort)
	c := packet.Captured{Medium: packet.MediumIEEE802154, Kind: packet.KindUnknown}
	setEnds(&c, src, shortIdent(mac.DstShort))
	c.Transmitter, c.TransmitterH = src.id, src.h
	// Link-layer security means the payload is ciphertext: opaque to a
	// passive monitor, but the frame itself (addresses, RSSI, the
	// security bit that Topology Discovery turns into the Encrypted
	// feature) is still valuable.
	if mac.Type != ieee802154.FrameData || len(mac.Payload) == 0 || mac.Security {
		c.Payload = mac.Payload
		return capture1(&c, &mac), nil
	}
	switch {
	// CTP frames are identified by their AM dispatch byte.
	case ctp.IsBeacon(mac.Payload):
		var b ctp.Beacon
		if err := ctp.DecodeBeaconInto(&b, mac.Payload); err != nil {
			return nil, err
		}
		c.Kind = packet.KindCTPBeacon
		return capture2(&c, &mac, &b), nil
	case ctp.IsCTP(mac.Payload):
		var d ctp.Data
		if err := ctp.DecodeDataInto(&d, mac.Payload); err != nil {
			return nil, err
		}
		c.Kind = packet.KindCTPData
		setSrc(&c, shortIdent(d.Origin)) // end-to-end origin
		c.Payload = d.Payload
		return capture2(&c, &mac, &d), nil
	// 6LoWPAN next (dispatch-based), then ZigBee NWK as the fallback.
	case sixlowpan.IsLoWPAN(mac.Payload):
		return captureLoWPAN(&c, &mac)
	}
	var nwk zigbee.Frame
	if err := zigbee.DecodeInto(&nwk, mac.Payload); err != nil {
		return nil, err
	}
	setEnds(&c, shortIdent(nwk.Src), shortIdent(nwk.Dst))
	if nwk.IsRouting() {
		c.Kind = packet.KindZigbeeRouting
	} else {
		c.Kind = packet.KindZigbeeData
	}
	c.Payload = nwk.Payload
	return capture2(&c, &mac, &nwk), nil
}

func captureLoWPAN(c *packet.Captured, mac *ieee802154.Frame) (*packet.Captured, error) {
	f := newFrame[lowpanFrame]()
	if err := sixlowpan.DecodeInto(&f.lp, mac.Payload); err != nil {
		return nil, err
	}
	f.Captured, f.mac = *c, *mac
	lp := &f.lp.Packet
	f.layers[0], f.layers[1] = &f.mac, lp
	f.Layers = f.layers[:2:2]
	if lp.Mesh != nil {
		setEnds(&f.Captured, shortIdent(lp.Mesh.Origin), shortIdent(lp.Mesh.Dst))
	} else {
		setEnds(&f.Captured, shortIdent(lp.Src), shortIdent(lp.Dst))
	}
	if lp.RPL != nil {
		f.layers[2] = lp.RPL
		f.Layers = f.layers[:]
		f.Kind = packet.KindRPLControl
	} else {
		f.Kind = packet.KindSixLowPAN
		f.Payload = lp.Payload
	}
	return &f.Captured, nil
}

func decodeWiFi(medium packet.Medium, raw []byte) (*packet.Captured, error) {
	var fr wifi.Frame
	if err := wifi.DecodeInto(&fr, raw); err != nil {
		return nil, err
	}
	tx := macIdentity(fr.Addr2)
	c := packet.Captured{Medium: medium, Transmitter: tx.id, TransmitterH: tx.h}
	if fr.Type != wifi.TypeData || len(fr.Payload) == 0 {
		// No IP inside: the 802.11 addresses are the end-to-end
		// identities too.
		if fr.Type == wifi.TypeManagement {
			c.Kind = packet.KindWiFiMgmt
		}
		setEnds(&c, hwIdent(fr.Addr2), hwIdent(fr.Addr1))
		c.Payload = fr.Payload
		return capture1(&c, &fr), nil
	}
	var ip ipv4.Header
	if err := ipv4.DecodeInto(&ip, fr.Payload); err != nil {
		return nil, err
	}
	setEnds(&c, ipIdent(ip.Src), ipIdent(ip.Dst))
	switch ip.Protocol {
	case ipv4.ProtoICMP:
		var m icmp.Message
		if err := icmp.DecodeInto(&m, ip.Payload); err != nil {
			return nil, err
		}
		switch {
		case m.IsEchoRequest():
			c.Kind = packet.KindICMPEchoRequest
		case m.IsEchoReply():
			c.Kind = packet.KindICMPEchoReply
		default:
			c.Kind = packet.KindICMPOther
		}
		c.Payload = m.Payload
		return capture3(&c, &fr, &ip, &m), nil
	case ipv4.ProtoTCP:
		var seg tcp.Segment
		if err := tcp.DecodeInto(&seg, ip.Src, ip.Dst, ip.Payload); err != nil {
			return nil, err
		}
		switch {
		case seg.IsSYN():
			c.Kind = packet.KindTCPSYN
		case seg.IsACK() || seg.IsSYNACK():
			c.Kind = packet.KindTCPACK
		default:
			c.Kind = packet.KindTCPOther
		}
		c.Payload = seg.Payload
		return capture3(&c, &fr, &ip, &seg), nil
	case ipv4.ProtoUDP:
		var d udp.Datagram
		if err := udp.DecodeInto(&d, ip.Payload); err != nil {
			return nil, err
		}
		c.Kind = packet.KindUDP
		c.Payload = d.Payload
		return capture3(&c, &fr, &ip, &d), nil
	default:
		c.Payload = ip.Payload
		return capture2(&c, &fr, &ip), nil
	}
}

func decodeBLE(raw []byte) (*packet.Captured, error) {
	var pdu ble.PDU
	if err := ble.DecodeInto(&pdu, raw); err != nil {
		return nil, err
	}
	adv := hwIdent(pdu.Adv)
	c := packet.Captured{Medium: packet.MediumBluetooth, Kind: packet.KindBLEData, Payload: pdu.Payload}
	setEnds(&c, adv, broadcast())
	c.Transmitter, c.TransmitterH = adv.id, adv.h
	if pdu.IsAdvertising() {
		c.Kind = packet.KindBLEAdvertising
	}
	return capture1(&c, &pdu), nil
}
