package stack

import (
	"fmt"
	"net/netip"

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

// referenceDecode is the decoder Decode replaced, kept as the test
// oracle: it composes the per-layer Decode wrappers one heap value per
// layer, appends them to Layers, and renders every identity afresh with
// fmt — no frame value, no intern table. Decode must agree with it on
// every input: error or not, error text, and every Captured field.

func refShortID(addr uint16) packet.NodeID {
	if addr == 0xffff {
		return packet.Broadcast
	}
	return packet.NodeID(fmt.Sprintf("0x%04x", addr))
}

func refHW(a [6]byte) packet.NodeID {
	return packet.NodeID(fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5]))
}

func refMACIdentity(m wifi.MAC) packet.NodeID {
	if m[0] == 0x02 && m[1] == 0x00 {
		return packet.NodeID(netip.AddrFrom4([4]byte{m[2], m[3], m[4], m[5]}).String())
	}
	return refHW(m)
}

// referenceDecode also gives the capture its identity handles, by name:
// the handles Decode assigns are the identity table's for those names.
func referenceDecode(medium packet.Medium, raw []byte) (*packet.Captured, error) {
	c, err := referenceLayers(medium, raw)
	if err != nil {
		return nil, err
	}
	return c.Identify(), nil
}

func referenceLayers(medium packet.Medium, raw []byte) (*packet.Captured, error) {
	switch medium {
	case packet.MediumIEEE802154:
		return refDecode802154(raw)
	case packet.MediumWiFi, packet.MediumWired:
		return refDecodeWiFi(medium, raw)
	case packet.MediumBluetooth:
		return refDecodeBLE(raw)
	default:
		return nil, fmt.Errorf("stack: unsupported medium %v", medium)
	}
}

func refDecode802154(raw []byte) (*packet.Captured, error) {
	mac, err := ieee802154.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("802.15.4: %w", err)
	}
	c := &packet.Captured{
		Medium:      packet.MediumIEEE802154,
		Src:         refShortID(mac.SrcShort),
		Dst:         refShortID(mac.DstShort),
		Transmitter: refShortID(mac.SrcShort),
		Kind:        packet.KindUnknown,
		Layers:      []packet.Layer{mac},
	}
	if mac.Type != ieee802154.FrameData || len(mac.Payload) == 0 || mac.Security {
		c.Payload = mac.Payload
		return c, nil
	}
	if ctp.IsCTP(mac.Payload) {
		msg, err := ctp.Decode(mac.Payload)
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case *ctp.Data:
			c.Layers = append(c.Layers, m)
			c.Kind = packet.KindCTPData
			c.Src = refShortID(m.Origin)
			c.Payload = m.Payload
		case *ctp.Beacon:
			c.Layers = append(c.Layers, m)
			c.Kind = packet.KindCTPBeacon
		}
		return c, nil
	}
	if lp, err := sixlowpan.Decode(mac.Payload); err == nil {
		c.Layers = append(c.Layers, lp)
		c.Src, c.Dst = refShortID(lp.Src), refShortID(lp.Dst)
		if lp.Mesh != nil {
			c.Src, c.Dst = refShortID(lp.Mesh.Origin), refShortID(lp.Mesh.Dst)
		}
		if lp.RPL != nil {
			c.Layers = append(c.Layers, lp.RPL)
			c.Kind = packet.KindRPLControl
		} else {
			c.Kind = packet.KindSixLowPAN
			c.Payload = lp.Payload
		}
		return c, nil
	}
	nwk, err := zigbee.Decode(mac.Payload)
	if err != nil {
		return nil, err
	}
	c.Layers = append(c.Layers, nwk)
	c.Src, c.Dst = refShortID(nwk.Src), refShortID(nwk.Dst)
	if nwk.IsRouting() {
		c.Kind = packet.KindZigbeeRouting
	} else {
		c.Kind = packet.KindZigbeeData
	}
	c.Payload = nwk.Payload
	return c, nil
}

func refDecodeWiFi(medium packet.Medium, raw []byte) (*packet.Captured, error) {
	fr, err := wifi.Decode(raw)
	if err != nil {
		return nil, err
	}
	c := &packet.Captured{
		Medium:      medium,
		Src:         refHW(fr.Addr2),
		Dst:         refHW(fr.Addr1),
		Transmitter: refMACIdentity(fr.Addr2),
		Layers:      []packet.Layer{fr},
	}
	if fr.Type == wifi.TypeManagement {
		c.Kind = packet.KindWiFiMgmt
		c.Payload = fr.Payload
		return c, nil
	}
	if fr.Type != wifi.TypeData || len(fr.Payload) == 0 {
		c.Payload = fr.Payload
		return c, nil
	}
	ip, err := ipv4.Decode(fr.Payload)
	if err != nil {
		return nil, err
	}
	c.Layers = append(c.Layers, ip)
	c.Src, c.Dst = packet.NodeID(ip.Src.String()), packet.NodeID(ip.Dst.String())
	switch ip.Protocol {
	case ipv4.ProtoICMP:
		m, err := icmp.Decode(ip.Payload)
		if err != nil {
			return nil, err
		}
		c.Layers = append(c.Layers, m)
		switch {
		case m.IsEchoRequest():
			c.Kind = packet.KindICMPEchoRequest
		case m.IsEchoReply():
			c.Kind = packet.KindICMPEchoReply
		default:
			c.Kind = packet.KindICMPOther
		}
		c.Payload = m.Payload
	case ipv4.ProtoTCP:
		seg, err := tcp.Decode(ip.Src, ip.Dst, ip.Payload)
		if err != nil {
			return nil, err
		}
		c.Layers = append(c.Layers, seg)
		switch {
		case seg.IsSYN():
			c.Kind = packet.KindTCPSYN
		case seg.IsACK() || seg.IsSYNACK():
			c.Kind = packet.KindTCPACK
		default:
			c.Kind = packet.KindTCPOther
		}
		c.Payload = seg.Payload
	case ipv4.ProtoUDP:
		d, err := udp.Decode(ip.Payload)
		if err != nil {
			return nil, err
		}
		c.Layers = append(c.Layers, d)
		c.Kind = packet.KindUDP
		c.Payload = d.Payload
	default:
		c.Payload = ip.Payload
	}
	return c, nil
}

func refDecodeBLE(raw []byte) (*packet.Captured, error) {
	pdu, err := ble.Decode(raw)
	if err != nil {
		return nil, err
	}
	c := &packet.Captured{
		Medium:      packet.MediumBluetooth,
		Src:         refHW(pdu.Adv),
		Dst:         packet.Broadcast,
		Transmitter: refHW(pdu.Adv),
		Layers:      []packet.Layer{pdu},
		Payload:     pdu.Payload,
	}
	if pdu.IsAdvertising() {
		c.Kind = packet.KindBLEAdvertising
	} else {
		c.Kind = packet.KindBLEData
	}
	return c, nil
}
