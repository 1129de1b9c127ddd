package stack

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"kalis/internal/packet"
	"kalis/internal/proto/ble"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/ipv4"
	"kalis/internal/proto/wifi"
	"kalis/internal/proto/zigbee"
)

// sample is one raw frame with the medium it is captured on.
type sample struct {
	name   string
	medium packet.Medium
	raw    []byte
}

// builtFrames returns a frame from every Build* helper, plus the
// shapes no helper emits (secured, ack, source-routed, non-IP data,
// unknown IP protocol, wired).
func builtFrames() []sample {
	src, dst := netip.MustParseAddr("192.168.1.5"), netip.MustParseAddr("34.2.2.2")
	router := netip.MustParseAddr("192.168.1.1")
	secured := &ieee802154.Frame{Type: ieee802154.FrameData, Security: true, PANIDCompress: true, DstPAN: 0x1234,
		DstMode: ieee802154.AddrShort, SrcMode: ieee802154.AddrShort, DstShort: 1, SrcShort: 7, Payload: []byte{0x71, 9, 9}}
	ack := &ieee802154.Frame{Type: ieee802154.FrameAck, Seq: 9}
	extended := &ieee802154.Frame{Type: ieee802154.FrameData, DstPAN: 1, SrcPAN: 2, DstMode: ieee802154.AddrExtended,
		SrcMode: ieee802154.AddrExtended, DstExt: 0x1122334455667788, SrcExt: 0x8877665544332211}
	routed := &zigbee.Frame{Type: zigbee.FrameData, Protocol: 2, SourceRoute: true, Dst: 1, Src: 9, Radius: 30, Seq: 4,
		Relays: []uint16{3, 4, 5}, Payload: []byte("on")}
	otherIP := &ipv4.Header{TTL: 64, Protocol: 47, Src: src, Dst: dst, ID: 3, Payload: []byte("gre")}
	nonIP := &wifi.Frame{Type: wifi.TypeControl, Subtype: 13, Addr1: wifi.MAC{1, 2, 3, 4, 5, 6}, Addr2: wifi.MAC{0xaa, 0xbb, 0xcc, 1, 2, 3}}
	return []sample{
		{"ctp-data", packet.MediumIEEE802154, BuildCTPData(5, 3, 5, 1, 0, 10, []byte{0x01, 0x01})},
		{"ctp-data-empty", packet.MediumIEEE802154, BuildCTPData(5, 3, 6, 1, 2, 10, nil)},
		{"ctp-beacon", packet.MediumIEEE802154, BuildCTPBeacon(3, 1, 30, 2)},
		{"zigbee", packet.MediumIEEE802154, BuildZigbeeData(2, 1, 9, 1, 5, []byte("cmd"))},
		{"zigbee-command", packet.MediumIEEE802154, BuildZigbeeCommand(2, 0xffff, 2, 0xfffc, 6, zigbee.CmdRouteRequest, []byte{1, 2})},
		{"zigbee-source-route", packet.MediumIEEE802154, mac154(2, 1, 4, routed.Encode())},
		{"rpl-dio", packet.MediumIEEE802154, BuildRPLDIO(3, 1, 512, 1)},
		{"sixlowpan", packet.MediumIEEE802154, BuildSixLowPANData(4, 2, 4, 1, 7, 0, []byte("temp"))},
		{"sixlowpan-mesh", packet.MediumIEEE802154, BuildSixLowPANData(4, 2, 8, 1, 7, 3, []byte("temp"))},
		{"154-secured", packet.MediumIEEE802154, secured.Encode()},
		{"154-ack", packet.MediumIEEE802154, ack.Encode()},
		{"154-extended", packet.MediumIEEE802154, extended.Encode()},
		{"tcp-wifi", packet.MediumWiFi, BuildTCP(src, dst, 4000, 443, 0x12, 1, 1, 1, nil)},
		{"tcp-wifi-payload", packet.MediumWiFi, BuildTCP(src, dst, 4000, 443, 0x18, 7, 9, 2, []byte("GET /x"))},
		{"icmp-wifi", packet.MediumWiFi, BuildICMPEcho(src, dst, 0, 1, 1, 64)},
		{"icmp-wifi-payload", packet.MediumWiFi, BuildICMPEchoPayload(src, dst, 8, 1, 2, 64, PingPayload())},
		{"icmp-relayed", packet.MediumWiFi, BuildIPFrame(router, src, 5, EncodeICMPEchoIP(dst, src, 0, 1, 2, 60, nil))},
		{"udp-wifi", packet.MediumWiFi, BuildUDP(src, dst, 56700, 56700, 3, []byte("lifx"))},
		{"udp-wired", packet.MediumWired, BuildUDP(src, dst, 53, 53, 4, nil)},
		{"ip-other", packet.MediumWiFi, wifiData(src, dst, 3, otherIP.Encode())},
		{"wifi-mgmt", packet.MediumWiFi, BuildWiFiMgmt(wifi.SubtypeBeacon, wifi.MAC{0xaa, 0xbb, 0xcc, 1, 2, 3}, wifi.BroadcastMAC, 1, []byte("ssid"))},
		{"wifi-control", packet.MediumWiFi, nonIP.Encode()},
		{"ble-adv", packet.MediumBluetooth, BuildBLEAdv(ble.Address{1, 2, 3, 4, 5, 6}, []byte{0x02, 0x01, 0x06})},
		{"ble-data", packet.MediumBluetooth, BuildBLEData(ble.Address{1, 2, 3, 4, 5, 6}, nil)},
		{"unsupported-medium", packet.Medium(9), []byte{1, 2, 3}},
	}
}

// diffDecode runs Decode and the reference on private copies of raw
// and reports any disagreement: error or not, error text, and every
// Captured field and layer value.
func diffDecode(t testing.TB, name string, medium packet.Medium, raw []byte) *packet.Captured {
	t.Helper()
	got, gotErr := Decode(medium, append([]byte(nil), raw...))
	want, wantErr := referenceDecode(medium, append([]byte(nil), raw...))
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: Decode error = %v, reference error = %v (% x)", name, gotErr, wantErr, raw)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() || got != nil {
			t.Fatalf("%s: Decode = (%v, %q), reference error %q (% x)", name, got, gotErr, wantErr, raw)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: decoders disagree (% x)\n got %+v\nwant %+v", name, raw, describe(got), describe(want))
	}
	return got
}

// describe flattens a Captured for failure messages (the layers are
// pointers; %+v on the envelope alone would print addresses).
func describe(c *packet.Captured) []interface{} {
	env := *c
	env.Layers = nil
	out := []interface{}{env}
	for _, l := range c.Layers {
		out = append(out, reflect.Indirect(reflect.ValueOf(l)).Interface())
	}
	return out
}

// TestDecodeMatchesReference: on every built frame, every truncation of
// it, every single-bit flip and a few thousand multi-bit flips, Decode
// and the per-layer reference agree.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, s := range builtFrames() {
		diffDecode(t, s.name, s.medium, s.raw)
		for cut := 0; cut < len(s.raw); cut++ {
			diffDecode(t, s.name+"/truncated", s.medium, s.raw[:cut])
		}
		mut := make([]byte, len(s.raw))
		for bit := 0; bit < 8*len(s.raw); bit++ {
			copy(mut, s.raw)
			mut[bit/8] ^= 1 << (bit % 8)
			diffDecode(t, s.name+"/bitflip", s.medium, mut)
		}
		for i := 0; i < 200; i++ {
			copy(mut, s.raw)
			for flips := 2 + rng.Intn(4); flips > 0; flips-- {
				mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
			}
			diffDecode(t, s.name+"/bitflips", s.medium, mut)
		}
	}
}

// TestDecodeAllocs: a decoded frame is one heap allocation — the frame
// value holding the Captured, its Layers array and the layer structs —
// once its identities are in the intern table (AllocsPerRun's warm-up
// call puts them there).
func TestDecodeAllocs(t *testing.T) {
	gated := map[string]bool{
		"tcp-wifi": true, "icmp-wifi": true, "udp-wifi": true, "ctp-data": true,
		"ctp-beacon": true, "zigbee": true, "rpl-dio": true, "ble-adv": true,
		"sixlowpan-mesh": true, "wifi-mgmt": true, "154-secured": true, "ip-other": true,
	}
	for _, s := range builtFrames() {
		if !gated[s.name] {
			continue
		}
		delete(gated, s.name)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Decode(s.medium, s.raw); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %.1f allocations per decode, want 1", s.name, allocs)
		}
	}
	for name := range gated {
		t.Errorf("no built frame named %q", name)
	}
}

// TestDecodedFramesIndependent: a frame belongs to its caller, who may
// retain it while decoding goes on (a sharded node's ingest ring does),
// so a later decode must never write into an earlier frame — no shared
// frame value, no shared Layers array, no reused layer struct.
func TestDecodedFramesIndependent(t *testing.T) {
	const n = 10000
	built := builtFrames()
	frame := func(i int) sample {
		s := built[i%(len(built)-1)] // all but unsupported-medium
		raw := append([]byte(nil), s.raw...)
		if s.medium == packet.MediumWiFi && len(raw) > 24 {
			// vary the 802.11 sequence number: outside every checksum
			binary.LittleEndian.PutUint16(raw[22:24], uint16(i)<<4)
		}
		return sample{s.name, s.medium, raw}
	}
	retained := make([]*packet.Captured, n)
	want := make([]*packet.Captured, n)
	for i := range retained {
		s := frame(i)
		var err error
		if retained[i], err = Decode(s.medium, s.raw); err != nil {
			t.Fatal(err)
		}
		if want[i], err = referenceDecode(s.medium, append([]byte(nil), s.raw...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < 2*n; i++ {
		s := frame(i)
		if _, err := Decode(s.medium, s.raw); err != nil {
			t.Fatal(err)
		}
	}
	for i := range retained {
		if !reflect.DeepEqual(retained[i], want[i]) {
			t.Fatalf("frame %d changed while later frames were decoded:\n got %+v\nwant %+v", i, describe(retained[i]), describe(want[i]))
		}
	}
}

// internFilled counts occupied intern-table slots.
func internFilled() int {
	n := 0
	for i := range internTable {
		if internTable[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestInternBounded: a flood from a million distinct spoofed IPv4
// sources cannot grow the identity table — it has internSlots slots
// and nothing else — and the heap it pins stays bounded; identities
// come out right during and after the flood.
func TestInternBounded(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	victim := netip.MustParseAddr("192.168.1.5")
	raw := BuildICMPEcho(netip.MustParseAddr("10.0.0.1"), victim, 8, 1, 1, 64)
	ip := raw[24:44]
	spoof := func(i int) {
		// 11.x.y.z source, the matching transmitter MAC, fresh header checksum
		binary.BigEndian.PutUint32(ip[12:16], 11<<24|uint32(i))
		copy(raw[12:16], ip[12:16])
		ip[10], ip[11] = 0, 0
		binary.BigEndian.PutUint16(ip[10:12], ipv4.Checksum(ip))
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Fill the table first, so that what is measured is a full table
	// under churn, not the first filling.
	for i := 0; i < 4*internSlots; i++ {
		spoof(n + i)
		if _, err := Decode(packet.MediumWiFi, raw); err != nil {
			t.Fatal(err)
		}
	}
	before := heap()
	for i := 0; i < n; i++ {
		spoof(i)
		c, err := Decode(packet.MediumWiFi, raw)
		if err != nil {
			t.Fatal(err)
		}
		if i%4099 == 0 {
			want := packet.NodeID(netip.AddrFrom4([4]byte(ip[12:16])).String())
			if c.Src != want || c.Transmitter != want || c.Dst != "192.168.1.5" {
				t.Fatalf("spoofed frame %d decoded as %s -> %s via %s, want %s -> 192.168.1.5", i, c.Src, c.Dst, c.Transmitter, want)
			}
		}
	}
	after := heap()
	if filled := internFilled(); filled > internSlots {
		t.Errorf("intern table holds %d entries, more than its %d slots", filled, internSlots)
	}
	if growth := int64(after) - int64(before); growth > 1<<20 {
		t.Errorf("heap grew by %d bytes over %d spoofed sources, want a bounded table (< 1 MiB)", growth, n)
	}
}

// TestInternConcurrent: Decode is a package function called from any
// goroutine (the sharded producer, every simulator sniffer). Goroutines
// decoding frames whose identities fight over the same intern slots
// must each get their own identities back. Run with -race -count=10.
func TestInternConcurrent(t *testing.T) {
	// Short addresses that share one slot with 0x0001, so that every
	// decode evicts another goroutine's entry.
	var rivals []uint16
	for a := uint16(2); a < 0xffff && len(rivals) < 8; a++ {
		if internSlot(nsShort<<48|uint64(a)) == internSlot(nsShort<<48|1) {
			rivals = append(rivals, a)
		}
	}
	if len(rivals) < 2 {
		t.Fatalf("found %d short addresses colliding with 0x0001, want a few", len(rivals))
	}
	rivals = append(rivals, 1)
	var wg sync.WaitGroup
	for g, addr := range rivals {
		wg.Add(1)
		go func(g int, addr uint16) {
			defer wg.Done()
			raw := BuildCTPData(addr, uint16(100+g), addr, 1, 0, 10, []byte{byte(g)})
			ipSrc := netip.AddrFrom4([4]byte{10, 0, byte(g), 1})
			rawIP := BuildUDP(ipSrc, netip.MustParseAddr("10.0.0.2"), 1, 2, 3, nil)
			for i := 0; i < 2000; i++ {
				c, err := Decode(packet.MediumIEEE802154, raw)
				if err != nil {
					t.Error(err)
					return
				}
				if want := refShortID(addr); c.Src != want || c.Transmitter != want || c.Dst != refShortID(uint16(100+g)) {
					t.Errorf("goroutine %d: decoded %s -> %s via %s, want source %s", g, c.Src, c.Dst, c.Transmitter, want)
					return
				}
				c, err = Decode(packet.MediumWiFi, rawIP)
				if err != nil {
					t.Error(err)
					return
				}
				if want := packet.NodeID(ipSrc.String()); c.Src != want || c.Transmitter != want || c.Dst != "10.0.0.2" {
					t.Errorf("goroutine %d: decoded %s -> %s via %s, want source %s", g, c.Src, c.Dst, c.Transmitter, want)
					return
				}
			}
		}(g, addr)
	}
	wg.Wait()
}
