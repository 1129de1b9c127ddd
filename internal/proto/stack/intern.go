package stack

import (
	"encoding/binary"
	"net/netip"
	"sync/atomic"

	"kalis/internal/packet"
)

// Identity interning. Every decoded frame names up to three entities
// (Src, Dst, Transmitter) and steady traffic names the same few over
// and over, so the NodeID strings and their identity handles (see
// packet.Handle) come from a fixed-size, lock-free, direct-mapped
// table: a hit is one atomic load, a compare and a check that the
// handle is still live; a miss renders the string, asks the identity
// table for its handle and overwrites the slot. Nothing is ever added
// beyond the table's internSlots entries, so a flood of spoofed sources
// evicts entries (and pays the render again) but cannot grow memory;
// frames their callers retain keep their own strings alive, exactly as
// when each frame rendered its own.

// internSlots is the table size: a power of two well above the entity
// count of any monitored network (tens to hundreds), small enough
// (32 KiB of pointers, at most ~300 KiB with every slot filled) for a
// gateway-class box.
const (
	internBits  = 12
	internSlots = 1 << internBits
)

// Identity namespaces: the high 16 bits of an intern key. 802.11 MACs
// and BLE device addresses render alike and so share one.
const (
	nsShort uint64 = iota + 1 // 16-bit 802.15.4/ZigBee short address
	nsIPv4                    // IPv4 address
	nsHW                      // 48-bit hardware address
)

// ident is an identity as a decoded frame carries it.
type ident struct {
	id packet.NodeID
	h  packet.Handle
}

// interned is one table entry, immutable once published.
type interned struct {
	key uint64
	ident
}

var internTable [internSlots]atomic.Pointer[interned]

// internSlot maps a key to its one slot (Fibonacci hashing: the
// address bits that vary sit in the low bytes).
func internSlot(key uint64) *atomic.Pointer[interned] {
	return &internTable[key*0x9E3779B97F4A7C15>>(64-internBits)]
}

// intern returns the identity of the address bits in the namespace.
func intern(ns, bits uint64) ident {
	key := ns<<48 | bits
	slot := internSlot(key)
	e := slot.Load()
	if e != nil && e.key == key && packet.Seen(e.h) {
		return e.ident
	}
	var id packet.NodeID
	if e != nil && e.key == key {
		id = e.id // the handle was evicted, the string still serves
	} else {
		id = render(ns, bits)
	}
	//lint:ignore hotalloc intern miss: the first sight of an identity (or its return after an eviction) renders the string once; steady traffic hits
	e = &interned{key: key, ident: ident{id: id, h: packet.HandleOf(id)}}
	slot.Store(e)
	return e.ident
}

// render builds the canonical NodeID string of an identity: "0x%04x"
// for short addresses (the broadcast address is packet.Broadcast),
// dotted quad for IPv4, colon-hex for hardware addresses — by hand, fmt
// stays off the capture path.
func render(ns, bits uint64) packet.NodeID {
	switch ns {
	case nsShort:
		if bits == 0xffff {
			return packet.Broadcast
		}
		const digits = "0123456789abcdef"
		b := [6]byte{'0', 'x',
			digits[bits>>12&0xf], digits[bits>>8&0xf],
			digits[bits>>4&0xf], digits[bits&0xf]}
		return packet.NodeID(b[:])
	case nsIPv4:
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(bits))
		return packet.NodeID(netip.AddrFrom4(a).String())
	default:
		var a [8]byte
		binary.BigEndian.PutUint64(a[:], bits)
		return packet.NodeID(packet.ColonHex([6]byte(a[2:])))
	}
}

// ShortID renders an 802.15.4/ZigBee 16-bit short address as a NodeID
// in the canonical "0x%04x" form.
func ShortID(addr uint16) packet.NodeID { return shortIdent(addr).id }

func shortIdent(addr uint16) ident { return intern(nsShort, uint64(addr)) }

// broadcast is the link-layer broadcast identity.
func broadcast() ident { return shortIdent(0xffff) }

// IPID renders an IP address as a NodeID.
func IPID(a netip.Addr) packet.NodeID {
	if !a.Is4() {
		return packet.NodeID(a.String())
	}
	return ipIdent(a).id
}

// ipIdent is the identity of an IPv4 address.
func ipIdent(a netip.Addr) ident {
	b := a.As4()
	return intern(nsIPv4, uint64(binary.BigEndian.Uint32(b[:])))
}

// hwIdent is the identity of a 48-bit hardware address (802.11 MAC, BLE
// device address), rendered in colon-hex form.
func hwIdent(a [6]byte) ident {
	return intern(nsHW, uint64(binary.BigEndian.Uint16(a[:2]))<<32|uint64(binary.BigEndian.Uint32(a[2:])))
}

// macIdentity maps a WiFi transmitter MAC back into the IP namespace
// when it follows the locally-administered encoding used by macFromIP,
// so that per-hop transmitters and end-to-end IP sources share one
// identity space. A station transmitting its own traffic then has
// Transmitter == Src, while relayed/forwarded traffic (e.g. a router
// forwarding Internet-side frames) exposes Transmitter != Src — the
// multi-hop evidence the Topology Discovery module looks for.
func macIdentity(m [6]byte) ident {
	if m[0] == 0x02 && m[1] == 0x00 {
		return intern(nsIPv4, uint64(binary.BigEndian.Uint32(m[2:])))
	}
	return hwIdent(m)
}
