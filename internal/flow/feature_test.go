package flow

import (
	"math"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

// featTable builds a table and a collector for its exported records.
func featTable() (*Table, *[]Record) {
	tbl := NewTable(Config{})
	recs := collectRecords(tbl)
	return tbl, recs
}

// featVal finds a feature value by name in an exported record.
func featVal(t *testing.T, r Record, name string) float64 {
	t.Helper()
	for _, v := range r.Features {
		if v.Name == name {
			return v.V
		}
	}
	t.Fatalf("record has no feature %q: %+v", name, r.Features)
	return 0
}

func hasFeat(r Record, name string) bool {
	for _, v := range r.Features {
		if v.Name == name {
			return true
		}
	}
	return false
}

// decodeCap decodes a built frame and stamps capture metadata.
func decodeCap(t *testing.T, medium packet.Medium, raw []byte, at time.Time, rssi float64) *packet.Captured {
	t.Helper()
	c, err := stack.Decode(medium, raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c.Time = at
	c.RSSI = rssi
	return c
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestRateFeature(t *testing.T) {
	tbl, recs := featTable()
	for _, d := range []time.Duration{0, time.Second, 2 * time.Second} {
		tbl.Update(cap1("A", "B", t0.Add(d)))
	}
	tbl.Update(cap1("lonely", "B", t0)) // single-packet flow: rate 0
	tbl.Flush()
	if len(*recs) != 2 {
		t.Fatalf("got %d records, want 2", len(*recs))
	}
	for _, r := range *recs {
		rate := featVal(t, r, "rate_pps")
		switch r.Key.Src {
		case "A":
			// 3 packets over 2 seconds: 2 inter-arrivals per 2s.
			if !approx(rate, 1.0) {
				t.Errorf("rate_pps = %v, want 1.0", rate)
			}
		case "lonely":
			if rate != 0 {
				t.Errorf("single-packet rate_pps = %v, want 0", rate)
			}
		}
	}
}

func TestIATFeature(t *testing.T) {
	tbl, recs := featTable()
	// Inter-arrivals: 1s, 2s.
	for _, d := range []time.Duration{0, time.Second, 3 * time.Second} {
		tbl.Update(cap1("A", "B", t0.Add(d)))
	}
	tbl.Flush()
	r := (*recs)[0]
	if got := featVal(t, r, "iat_mean"); !approx(got, 1.5) {
		t.Errorf("iat_mean = %v, want 1.5", got)
	}
	if got := featVal(t, r, "iat_stddev"); !approx(got, math.Sqrt(0.5)) {
		t.Errorf("iat_stddev = %v, want sqrt(0.5)", got)
	}
	if got := featVal(t, r, "iat_min"); !approx(got, 1) {
		t.Errorf("iat_min = %v, want 1", got)
	}
	if got := featVal(t, r, "iat_max"); !approx(got, 2) {
		t.Errorf("iat_max = %v, want 2", got)
	}
}

func TestIATSkipsSinglePacketFlow(t *testing.T) {
	tbl, recs := featTable()
	tbl.Update(cap1("A", "B", t0))
	tbl.Flush()
	if hasFeat((*recs)[0], "iat_mean") {
		t.Error("single-packet flow emitted iat values")
	}
}

func TestRSSIFeature(t *testing.T) {
	tbl, recs := featTable()
	c := cap1("A", "B", t0)
	c.RSSI = -60
	tbl.Update(c)
	c2 := cap1("A", "B", t0.Add(time.Second))
	c2.RSSI = -70
	tbl.Update(c2)
	// A wired flow must emit nothing: RSSI carries no information there.
	w := cap1("W", "B", t0)
	w.Medium = packet.MediumWired
	tbl.Update(w)
	tbl.Flush()
	for _, r := range *recs {
		switch r.Key.Src {
		case "A":
			if got := featVal(t, r, "rssi_mean"); !approx(got, -65) {
				t.Errorf("rssi_mean = %v, want -65", got)
			}
			if got := featVal(t, r, "rssi_min"); !approx(got, -70) {
				t.Errorf("rssi_min = %v, want -70", got)
			}
			if got := featVal(t, r, "rssi_max"); !approx(got, -60) {
				t.Errorf("rssi_max = %v, want -60", got)
			}
		case "W":
			if hasFeat(r, "rssi_mean") {
				t.Error("wired flow emitted rssi values")
			}
		}
	}
}

func TestCTPRangeFeatures(t *testing.T) {
	tbl, recs := featTable()
	// One CTP data flow 3>2 whose THL and ETX drift over three frames.
	frames := []struct {
		thl uint8
		etx uint16
	}{{3, 10}, {5, 16}, {4, 13}}
	at := t0
	for i, fr := range frames {
		raw := stack.BuildCTPData(3, 2, 3, uint8(i), fr.thl, fr.etx, []byte{0x01})
		tbl.Update(decodeCap(t, packet.MediumIEEE802154, raw, at, -60))
		at = at.Add(time.Second)
	}
	tbl.Flush()
	if len(*recs) != 1 {
		t.Fatalf("got %d records, want 1", len(*recs))
	}
	r := (*recs)[0]
	if r.Key.Proto != ProtoCTP {
		t.Errorf("proto = %v, want ctp", r.Key.Proto)
	}
	checks := map[string]float64{
		"thl_last": 4, "thl_range": 2, "thl_delta": 1,
		"etx_last": 13, "etx_range": 6, "etx_delta": 3,
	}
	for name, want := range checks {
		if got := featVal(t, r, name); !approx(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestETXFromBeacons(t *testing.T) {
	tbl, recs := featTable()
	for i, etx := range []uint16{20, 35} {
		raw := stack.BuildCTPBeacon(4, 1, etx, uint8(i))
		tbl.Update(decodeCap(t, packet.MediumIEEE802154, raw, t0.Add(time.Duration(i)*time.Second), -60))
	}
	tbl.Flush()
	r := (*recs)[0]
	if got := featVal(t, r, "etx_delta"); !approx(got, 15) {
		t.Errorf("etx_delta = %v, want 15", got)
	}
	// Beacons carry no THL: the thl feature must stay silent.
	if hasFeat(r, "thl_last") {
		t.Error("beacon-only flow emitted thl values")
	}
}
