package eval

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"kalis/internal/core/detection"
	"kalis/internal/core/module"
	"kalis/internal/packet"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/stack"
)

// TestRoutingAlertsSurviveAnIdentityFlood: bursts of spoofed 802.15.4
// addresses, each large enough to evict every identity from the handle
// table, leave the Sinkhole, Blackhole and SelectiveForwarding alerts of
// the WSN routing scenarios exactly as they are without them. A burst
// lands every few hundred frames, so the collection root and the relays
// lose their handles between two of their own frames again and again;
// what those detectors learned about them (the roots above all: a root
// taken for a relay is a sinkhole, or a blackhole that drops
// everything) must outlive the handle. Frames are decoded as they are
// replayed, as a live capture would be, so each carries the handles its
// identities hold at that moment.
func TestRoutingAlertsSurviveAnIdentityFlood(t *testing.T) {
	routing := []string{detection.SinkholeName, detection.BlackholeName, detection.SelectiveForwardingName}
	type frame struct {
		at   time.Time
		rssi float64
		raw  []byte
	}
	for _, name := range []string{"sinkhole/wsn", "blackhole/wsn", "selective-forwarding/wsn"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("no scenario %q", name)
		}
		t.Run(name, func(t *testing.T) {
			run := sc.Build(1, goldenEpisodes)
			var frames []frame
			run.Sniffer.Subscribe(func(c *packet.Captured) {
				if e, ok := c.Layers[0].(interface{ Encode() []byte }); ok {
					frames = append(frames, frame{c.Time, c.RSSI, e.Encode()})
				}
			})
			run.Sim.Run(run.End)
			decode := func(f frame) *packet.Captured {
				c, err := stack.Decode(packet.MediumIEEE802154, f.raw)
				if err != nil {
					t.Fatal(err)
				}
				c.Time, c.RSSI = f.at, f.rssi
				return c
			}

			alerts := func(flood bool) []string {
				ids, err := NewKalis("K1")(1)
				if err != nil {
					t.Fatal(err)
				}
				defer ids.Close()
				next, evicted := uint16(0x1000), 0
				var last packet.Handle
				for i, f := range frames {
					if flood && i > 0 && i%400 == 0 {
						for range 3 * packet.IdentityCapacity {
							ids.HandleCapture(decode(frame{f.at, f.rssi, spoofed(next)}))
							if next++; next == 0xffff {
								next = 0x1000
							}
						}
						if last != 0 && !packet.Live(last) {
							evicted++
						}
					}
					c := decode(f)
					last = c.TransmitterH
					ids.HandleCapture(c)
				}
				if flood && evicted < 3 {
					t.Fatalf("the bursts evicted a live transmitter %d times: the flood does not exercise eviction", evicted)
				}
				var out []string
				for _, a := range ids.(*kalisIDS).Node().Alerts() {
					if slices.Contains(routing, a.Module) {
						out = append(out, alertLine(a))
					}
				}
				return out
			}
			quiet, flooded := alerts(false), alerts(true)
			if len(quiet) == 0 {
				t.Fatal("no routing alert without the flood")
			}
			if !slices.Equal(quiet, flooded) {
				t.Errorf("routing alerts changed under the flood:\nwithout: %q\nwith:    %q", quiet, flooded)
			}
		})
	}
}

// spoofed is an empty 802.15.4 data frame broadcast from addr.
func spoofed(addr uint16) []byte {
	return (&ieee802154.Frame{
		Type: ieee802154.FrameData, PANIDCompress: true, DstPAN: 0x1234,
		DstMode: ieee802154.AddrShort, SrcMode: ieee802154.AddrShort,
		DstShort: 0xffff, SrcShort: addr,
	}).Encode()
}

func alertLine(a module.Alert) string {
	return fmt.Sprintf("%s %s %s %v %.2f %s", a.Time.Format("15:04:05.000000"), a.Module, a.Victim, a.Suspects, a.Confidence, a.Details)
}
