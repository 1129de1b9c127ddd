package flow

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// fwdNodes is the identity pool the fuzzer draws transmitters, link
// destinations and roots from.
var fwdNodes = []packet.NodeID{"0x0001", "0x0002", "0x0003", "0x0004", "0x0005", "0x0006", "0x0007", "0x0008"}

// fwdSteps are the capture-time steps between two fuzzed frames:
// repeats, steps across the 500 ms hand-off timeout (exactly on it, and
// one nanosecond past), across the windows, and backwards.
var fwdSteps = []time.Duration{0, time.Millisecond, 300 * time.Millisecond, 500 * time.Millisecond,
	500*time.Millisecond + 1, 4 * time.Second, -700 * time.Millisecond, 40 * time.Second}

// fwdWindows are the outcome windows a fuzz input picks from.
var fwdWindows = []time.Duration{30 * time.Second, 3 * time.Second, time.Second, 0}

const fwdYears = 365 * 24 * time.Hour

// Fuzz frame opcodes, three bytes each. Byte 0: bits 0–1 the kind (3 a
// beacon, else a data frame), bits 2–4 the index into fwdSteps, bit 5 an
// extra poll one window past the frame, bits 6–7 a jump of 40 years
// forward (1) or back (2). Data frames: byte 1 is origin (bits 0–1) and
// sequence number (bits 2–3), byte 2 the transmitter (bits 0–2) and the
// destination (bits 3–6: a node, broadcast or empty). Beacons: byte 1 is
// the transmitter (bits 0–2) and advertises ETX 0 unless bit 3 is set.
const (
	fwdData   = 0
	fwdBeacon = 3
	fwdPoll   = 1 << 5
	fwdAhead  = 1 << 6
	fwdBack   = 2 << 6
)

// fwdOp encodes one fuzz frame.
func fwdOp(kind, step, b1, b2 byte) []byte { return []byte{kind | step<<2, b1, b2} }

// fwdHand encodes a data frame of (origin, seq) from node tx to node dst.
func fwdHand(step, origin, seq, tx, dst byte) []byte {
	return fwdOp(fwdData, step, origin|seq<<2, tx|dst<<3)
}

// fwdDst maps the destination bits to a link destination.
func fwdDst(b byte) packet.NodeID {
	switch b {
	case 8:
		return packet.Broadcast
	case 9:
		return ""
	}
	return fwdNodes[b&7]
}

// FuzzForwardingWatch holds ForwardingWatch to the map-walk reference
// model (forwarding_ref_test.go): the input is one configuration byte
// (window and MinSamples) followed by CTP beacon and data frames, fed to
// both; after every frame the reports at its capture time, and every
// node's dropped origins, must be equal. Capture times step forwards,
// repeat and step back, within ±100 years of the first frame.
func FuzzForwardingWatch(f *testing.F) {
	root := fwdOp(fwdBeacon, 0, 0, 0) // 0x0001 advertises ETX 0
	seq := func(cfg byte, ops ...[]byte) []byte { return slices.Concat(append([][]byte{{cfg}}, ops...)...) }
	// The same (origin, seq) handed to relay 0x0002 again 300 ms later,
	// before its deadline: the first deadline passes stale and must not
	// count. The re-armed one expires, the pair is handed over once more
	// after that, and this time the relay forwards it on its deadline.
	f.Add(seq(0x04, root,
		fwdHand(0, 1, 1, 2, 1),
		fwdHand(2, 1, 1, 2, 1),
		fwdHand(2, 2, 0, 2, 1),
		fwdHand(2, 1, 1, 2, 1),
		fwdHand(3, 1, 1, 1, 0),
		fwdHand(4, 3, 0, 2, 1)))
	// A chain 0x0003 → 0x0002 → root with every other round dropped, a
	// root learned mid-stream, broadcast and empty destinations, a step
	// back and a 40-year jump.
	f.Add(seq(0x01,
		fwdHand(0, 1, 0, 3, 2), fwdHand(1, 1, 0, 2, 1),
		fwdHand(5, 1, 1, 3, 2),
		fwdHand(5, 1, 2, 3, 2), fwdHand(1, 1, 2, 2, 1), root,
		fwdHand(5, 1, 3, 3, 8), fwdHand(6, 1, 3, 3, 9),
		fwdOp(fwdData|fwdPoll, 7, 1, 3|2<<3),
		fwdOp(fwdData|fwdAhead, 4, 2, 4|2<<3),
		fwdOp(fwdData|fwdBack, 4, 2, 4|2<<3)))
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 8; i++ {
		in := make([]byte, 1+3*200)
		rng.Read(in)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		cfg := ForwardingConfig{Timeout: 500 * time.Millisecond, Window: fwdWindows[in[0]&3], MinSamples: 1 + int(in[0]>>2&3)}
		got, want := NewForwardingWatch(cfg), newRefWatch(cfg)
		var buf []RelayRatio
		poll := func(frame int, now time.Time) {
			buf = got.Ratios(nanos(now), buf)
			if w := want.Ratios(now, nil); !slices.Equal(buf, w) {
				t.Fatalf("frame %d: Ratios(%v) = %+v, the model reports %+v", frame, now, buf, w)
			}
		}
		start := time.Unix(1500000000, 0).UTC()
		at := start
		for i, op := 0, in[1:]; len(op) >= 3; i, op = i+1, op[3:] {
			at = at.Add(fwdSteps[op[0]>>2&7])
			switch op[0] >> 6 {
			case 1:
				at = at.Add(40 * fwdYears)
			case 2:
				at = at.Add(-40 * fwdYears)
			}
			if d := at.Sub(start); d > 100*fwdYears || d < -100*fwdYears {
				at = start.Add(min(max(d, -100*fwdYears), 100*fwdYears))
			}
			c := &packet.Captured{Time: at, Medium: packet.MediumIEEE802154}
			if op[0]&3 == fwdBeacon {
				c.Transmitter = fwdNodes[op[1]&7]
				c.Src, c.Dst = c.Transmitter, packet.Broadcast
				c.Layers = []packet.Layer{&ctp.Beacon{ETX: uint16(op[1]>>3&1) * 20}}
			} else {
				c.Transmitter = fwdNodes[op[2]&7]
				c.Src, c.Dst = c.Transmitter, fwdDst(op[2]>>3&15)
				c.Layers = []packet.Layer{&ctp.Data{Origin: uint16(op[1] & 3), SeqNo: op[1] >> 2 & 3}}
			}
			got.Observe(obs(c))
			want.Observe(c)
			poll(i, at)
			if op[0]&fwdPoll != 0 {
				poll(i, at.Add(cfg.Window+1))
			}
			for _, n := range fwdNodes {
				if g, w := got.DroppedOrigins(hid(n)), want.DroppedOrigins(n); !slices.Equal(g, w) {
					t.Fatalf("frame %d: DroppedOrigins(%s) = %v, the model says %v", i, n, g, w)
				}
			}
		}
	})
}
