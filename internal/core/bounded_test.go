package core

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

// TestBoundedUnderSpoofing is the whole-node version of
// TestInternBounded: a full-library node with every module active takes
// a million frames from distinct spoofed sources — IPv4 sources behind
// one transmitter, then 802.15.4 short addresses as transmitters and
// link destinations. The identity table never holds more than its
// capacity, and once the flood has filled it the node's live heap grows
// by less than a per-identity record per frame: every flow tracker's
// and every module's per-identity state, Topology's and Mobility's
// included, is filed by handle and so bounded by the table. (What still
// grows is what the node reports: SignalStrength knowggets and alerts
// about spoofed identities, DESIGN §8.5; the rest of the Base stays a
// few dozen knowggets.) MonitoredNodes stays a high-water mark.
func TestBoundedUnderSpoofing(t *testing.T) {
	// The node keeps every alert it raises, each naming its suspects; the
	// flood detectors alert once here, so the alert log does not grow
	// with the flood.
	const quietFloods = `modules = {
	ICMPFloodModule (cooldown=1000h),
	SmurfModule (cooldown=1000h),
	SYNFloodModule (cooldown=1000h)
}`
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	victim := netip.MustParseAddr("192.168.1.5")
	attacker := netip.MustParseAddr("192.168.1.66")
	spoofedIP := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}) }
	floods := []struct {
		name   string
		medium packet.Medium
		frame  func(i int) []byte
	}{
		{"ipv4-sources", packet.MediumWiFi, func(i int) []byte {
			src := spoofedIP(i)
			var raw []byte
			if i%2 == 0 {
				raw = stack.BuildICMPEcho(src, victim, 0, 1, uint16(i), 64)
			} else {
				raw = stack.BuildTCP(src, victim, uint16(1024+i%50000), 80, tcp.FlagSYN, uint32(i), 0, uint16(i), nil)
			}
			return stack.BuildIPFrame(attacker, victim, uint16(i), raw[24:])
		}},
		{"802.15.4-short-addresses", packet.MediumIEEE802154, func(i int) []byte {
			// Spoofed transmitters hand origin 1's frames to relay 2, and
			// one frame in 64 to a spoofed relay. (Every relay handed a
			// frame in the last window is walked per report, so spoofed
			// relays on every frame would test the walk, not the bound.)
			a := uint16(i) | 0x100
			if i%4 == 3 {
				return stack.BuildCTPBeacon(a, 2, uint16(10+i%40), uint8(i))
			}
			relay := uint16(2)
			if i%64 == 0 {
				relay = a + 1
			}
			return stack.BuildCTPData(a, relay, 1, uint8(i), 1, 20, []byte{1, byte(i)})
		}},
	}
	for _, fl := range floods {
		t.Run(fl.name, func(t *testing.T) {
			k, err := New(Config{NodeID: "K1", InstallAll: true, ConfigText: quietFloods})
			if err != nil {
				t.Fatal(err)
			}
			defer k.Close()
			high := 0
			var filled uint64 // the live heap once the table is full
			filledAt := 0
			check := func(frame int) {
				t.Helper()
				if live := packet.LiveIdentities(); live > packet.IdentityCapacity {
					t.Fatalf("frame %d: the identity table holds %d identities, over its capacity %d", frame, live, packet.IdentityCapacity)
				}
				monitored, _ := k.KB().Int(knowledge.LabelMonitoredNodes)
				if monitored < high {
					t.Fatalf("frame %d: MonitoredNodes fell from %d to %d", frame, high, monitored)
				}
				high = monitored
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if filled == 0 {
					filled, filledAt = ms.HeapAlloc, frame
				}
				// A map entry per spoofed identity costs tens of bytes a
				// frame; what the node reports costs a few.
				if grown, budget := int64(ms.HeapAlloc)-int64(filled), int64(1<<20+12*(frame-filledAt)); grown > budget {
					t.Fatalf("frame %d: the live heap grew %d bytes in %d frames since the table filled, over %d", frame, grown, frame-filledAt, budget)
				}
			}
			at := t0
			for i := 0; i < n; i++ {
				at = at.Add(time.Millisecond)
				k.HandleCapture(mkCap(t, fl.medium, fl.frame(i), at, -60-float64(i%7)))
				if i%65536 == 65535 {
					check(i)
				}
			}
			check(n)
			// Of the per-identity knowledge only SignalStrength is left
			// (DESIGN §8.5); what else the Base holds is per node or per
			// kind.
			signals := len(k.KB().QueryPrefix("K1$" + knowledge.LabelSignalStrength + "@"))
			if other := k.KB().Len() - signals; other > 32 {
				t.Errorf("the Base holds %d knowggets besides %d SignalStrength, over 32", other, signals)
			}
			if high < packet.IdentityCapacity/2 {
				t.Errorf("MonitoredNodes reached %d: the flood never filled the identity table", high)
			}
		})
	}
}
