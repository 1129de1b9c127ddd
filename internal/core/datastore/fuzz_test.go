package datastore

import (
	"bytes"
	"math"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/ble"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/wifi"
	"kalis/internal/trace"
)

// ringProgram runs a byte program against a Store and, beside it, the
// plainest model of its window: every record ever kept, in a slice.
type ringProgram struct {
	t      *testing.T
	s      *Store
	log    bytes.Buffer   // the store's disk log
	model  []trace.Record // every record kept, oldest first
	total  uint64
	frames int
}

// frame builds the next frame of a program: medium, payload length and
// ground truth from the program's bytes. It returns the capture and the
// record the window must hold for it.
func (p *ringProgram) frame(medium, length, truth byte) (*packet.Captured, trace.Record) {
	p.frames++
	i := p.frames
	payload := bytes.Repeat([]byte{byte(i)}, int(length)*4)
	var raw []byte
	m := packet.MediumIEEE802154
	switch medium % 3 {
	case 0:
		raw = stack.BuildCTPData(uint16(2+i%5), 1, 3, uint8(i), 1, 20, payload)
	case 1:
		m = packet.MediumWiFi
		raw = stack.BuildWiFiMgmt(4, wifi.MAC{2, 0, 0, 0, 0, byte(i)}, wifi.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(i), payload)
	default:
		m = packet.MediumBluetooth
		raw = stack.BuildBLEData(ble.Address{1, 2, 3, 4, 5, byte(i)}, payload[:min(len(payload), 255)])
	}
	c, err := stack.Decode(m, raw)
	if err != nil {
		p.t.Fatalf("frame %d does not decode: %v", i, err)
	}
	c.Time = time.Unix(1500000000, int64(i)*int64(time.Millisecond)).UTC()
	c.RSSI = -40 - float64(i%50)/4
	if truth&1 == 1 {
		c.Truth = &packet.GroundTruth{Attack: "sinkhole", Instance: i, Attacker: "0x0002", Victim: "0x0001"}
	}
	enc := c.Layers[0].(trace.Frame)
	rec := trace.Record{Time: c.Time, Medium: m, RSSI: c.RSSI, Raw: enc.AppendEncode(nil), Truth: c.Truth}
	return c, rec
}

// window is the model's window: its last Capacity records.
func (p *ringProgram) window() []trace.Record {
	return p.model[max(len(p.model)-p.s.Capacity(), 0):]
}

func (p *ringProgram) check() {
	t, s := p.t, p.s
	if s.Len() != len(p.window()) || s.Total() != p.total {
		t.Fatalf("len %d total %d, the model %d, %d", s.Len(), s.Total(), len(p.window()), p.total)
	}
	if s.head != s.top && s.head > s.pos[s.first] || s.top > len(s.ring) {
		t.Fatalf("ring of %d bytes: head %d, top %d, oldest at %d", len(s.ring), s.head, s.top, s.pos[s.first])
	}
}

// stream returns recs as the trace.Writer stream of them.
func (p *ringProgram) stream(recs []trace.Record) []byte {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			p.t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		p.t.Fatal(err)
	}
	return buf.Bytes()
}

// bytes checks the window's record bytes, oldest first, against a
// Writer stream of the model's window, and the disk log against a
// Writer stream of every record the model kept.
func (p *ringProgram) bytes() {
	t := p.t
	older, newer := p.s.runs(0, p.s.size)
	got := append(append(trace.AppendHeader(nil), older...), newer...)
	if want := p.stream(p.window()); !bytes.Equal(got, want) {
		t.Fatalf("the window holds %d bytes of records; the model's stream of its %d records is %d bytes", len(got), len(p.window()), len(want))
	}
	if err := p.s.FlushLog(); err != nil {
		t.Fatal(err)
	}
	if want := p.stream(p.model); !bytes.Equal(p.log.Bytes(), want) {
		t.Fatalf("the disk log is %d bytes; the model's stream of its %d records is %d bytes", p.log.Len(), len(p.model), len(want))
	}
}

// recent checks Recent(n) against the model's last records, decoded.
func (p *ringProgram) recent(n int) {
	t := p.t
	got := p.s.Recent(n)
	want := p.window()
	if n > 0 && n < len(want) {
		want = want[len(want)-n:]
	}
	if len(got) != len(want) {
		t.Fatalf("Recent(%d) = %d frames, the model %d", n, len(got), len(want))
	}
	for i, c := range got {
		w := want[i]
		raw := c.Layers[0].(trace.Frame).AppendEncode(nil)
		if !c.Time.Equal(w.Time) || c.Medium != w.Medium || math.Float64bits(c.RSSI) != math.Float64bits(w.RSSI) || !bytes.Equal(raw, w.Raw) {
			t.Fatalf("Recent(%d)[%d] = %v %v %v % x, the model %v %v %v % x", n, i, c.Time, c.Medium, c.RSSI, raw, w.Time, w.Medium, w.RSSI, w.Raw)
		}
		if (c.Truth == nil) != (w.Truth == nil) || c.Truth != nil && *c.Truth != *w.Truth {
			t.Fatalf("Recent(%d)[%d] truth %+v, the model %+v", n, i, c.Truth, w.Truth)
		}
	}
}

// FuzzWindowRing runs interleaved Appends of encodable and unencodable
// captures, checks of the window's bytes and the disk log, and Recent(n)
// against a logged window of capacity 1 to 64, on frames of every medium
// and of lengths up to over a kilobyte — many larger than half the ring
// — and holds the store to a []trace.Record model: the window's bytes
// are exactly the trace.Writer stream of the model's last records, the
// log that of all of them, and Recent decodes to the model's last
// records.
func FuzzWindowRing(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 10, 1, 0, 1, 200, 0, 0, 2, 3, 0, 1, 0, 0, 0, 0, 2, 5, 1, 2, 3, 0})
	f.Add(uint8(1), []byte{0, 1, 255, 1, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 3, 2, 1})
	f.Add(uint8(63), bytes.Repeat([]byte{0, 2, 30, 0, 0, 0, 90, 1, 1, 7}, 40))
	f.Add(uint8(7), bytes.Repeat([]byte{0, 1, 250, 0, 0, 0, 2, 1, 3, 3, 2, 1, 3}, 20))
	f.Fuzz(func(t *testing.T, capacity uint8, prog []byte) {
		p := &ringProgram{t: t, s: New(int(capacity%64) + 1)}
		p.s.SetLog(&p.log)
		arg := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		for len(prog) > 0 {
			switch arg() % 4 {
			case 0:
				c, rec := p.frame(arg(), arg(), arg())
				if err := p.s.Append(c); err != nil {
					t.Fatal(err)
				}
				p.model = append(p.model, rec)
				p.total++
			case 1:
				p.bytes()
			case 2:
				p.recent(int(arg()) % (p.s.Capacity() + 2))
			case 3:
				// A capture built by hand, with no layer to encode: counted,
				// neither kept nor logged.
				if err := p.s.Append(&packet.Captured{Medium: packet.MediumIEEE802154}); err != nil {
					t.Fatal(err)
				}
				p.total++
			}
			p.check()
		}
		p.bytes()
		p.recent(0)
	})
}
