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
	if s.Len() != len(p.window()) || s.Kept() != uint64(len(p.model)) || s.Total() != p.total {
		t.Fatalf("len %d kept %d total %d, the model %d, %d, %d", s.Len(), s.Kept(), s.Total(), len(p.window()), len(p.model), p.total)
	}
	if s.head != s.top && s.head > s.pos[s.first] || s.top > len(s.ring) {
		t.Fatalf("ring of %d bytes: head %d, top %d, oldest at %d", len(s.ring), s.head, s.top, s.pos[s.first])
	}
}

// snapshot checks SnapshotTo(since, limit) against a Writer stream of
// the model's records since since, the first limit of them.
func (p *ringProgram) snapshot(since uint64, limit int) {
	t := p.t
	var got, want bytes.Buffer
	n, next, err := p.s.SnapshotTo(&got, since, limit)
	if err != nil {
		t.Fatal(err)
	}
	fresh := p.window()
	from := uint64(len(p.model))
	if k := uint64(len(p.model)); since < k {
		fresh = fresh[len(fresh)-min(len(fresh), int(k-since)):]
		from -= uint64(len(fresh))
	} else {
		fresh = nil
	}
	if limit > 0 && len(fresh) > limit {
		fresh = fresh[:limit]
	}
	w := trace.NewWriter(&want)
	for i := range fresh {
		if err := w.Write(&fresh[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n != len(fresh) || next != from+uint64(n) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("SnapshotTo(since %d, limit %d) = %d records, next %d, %d bytes; the model's stream holds %d records, next %d, %d bytes",
			since, limit, n, next, got.Len(), len(fresh), from+uint64(len(fresh)), want.Len())
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

// FuzzWindowRing runs interleaved Append, SnapshotTo(since, limit), Recent(n)
// and Restore against a window of capacity 1 to 64, on frames of every
// medium and of lengths up to over a kilobyte — many larger than half
// the ring — and holds the store to a []trace.Record model: SnapshotTo
// writes exactly the trace.Writer stream of the model's fresh records,
// and Recent decodes to the model's last records.
func FuzzWindowRing(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 10, 1, 0, 1, 200, 0, 0, 2, 3, 0, 1, 0, 0, 0, 0, 2, 5, 1, 2, 3, 0})
	f.Add(uint8(1), []byte{0, 1, 255, 1, 0, 0, 1, 0, 1, 0, 0, 0, 2, 0, 3, 2, 1})
	f.Add(uint8(63), bytes.Repeat([]byte{0, 2, 30, 0, 0, 0, 90, 1, 1, 7}, 40))
	f.Add(uint8(7), bytes.Repeat([]byte{0, 1, 250, 0, 0, 0, 2, 1, 3, 3, 2, 1, 3}, 20))
	f.Fuzz(func(t *testing.T, capacity uint8, prog []byte) {
		p := &ringProgram{t: t, s: New(int(capacity%64) + 1)}
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
				p.snapshot(uint64(arg())%(uint64(len(p.model))+2), int(arg()%8)) // limit 0: no limit
			case 2:
				p.recent(int(arg()) % (p.s.Capacity() + 2))
			case 3:
				var recs []*trace.Record
				for range arg() % 4 {
					_, rec := p.frame(arg(), arg(), arg())
					recs = append(recs, &rec)
				}
				broken := int(arg() % 2) // a record that does not decode, last
				if broken == 1 {
					recs = append(recs, &trace.Record{Medium: packet.MediumIEEE802154, Raw: []byte{1, 2, 3}})
				}
				restored, skipped := p.s.Restore(recs)
				if restored != len(recs)-broken || skipped != broken {
					t.Fatalf("Restore of %d records, %d broken, restored %d and skipped %d", len(recs), broken, restored, skipped)
				}
				for _, rec := range recs[:restored] {
					p.model = append(p.model, *rec)
				}
				p.total += uint64(restored)
			}
			p.check()
		}
		p.snapshot(0, 0)
		p.recent(0)
	})
}
