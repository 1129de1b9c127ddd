package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"kalis/internal/packet"
)

// FuzzTraceRead holds the reader to its contract on two kinds of input.
// Read as a stream, arbitrary bytes never panic, never yield a Raw
// longer than the input, and never yield two successive records whose
// Raw share memory (flipping every byte of one leaves the other as it
// was read). Written by the Writer — the fuzzed bytes as the raw frame,
// once with a ground-truth label and once without — every field reads
// back equal.
func FuzzTraceRead(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	for _, rec := range sampleRecords() {
		if err := w.Write(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), int64(1500000000e9), -61.5, "sinkhole", int64(7), "0x0003", "0x0001")
	f.Add([]byte("KTRC\x01\x05\x02\x00\x00\x00\x00"), int64(-1), math.NaN(), "", int64(-1), "", "")
	f.Add([]byte{}, int64(0), math.Inf(-1), "\x00", int64(math.MaxInt64), "a", "v")
	f.Fuzz(func(t *testing.T, data []byte, nanos int64, rssi float64, attack string, instance int64, attacker, victim string) {
		readStream(t, data)

		truth := &packet.GroundTruth{Attack: attack, Instance: int(instance), Attacker: packet.NodeID(attacker), Victim: packet.NodeID(victim)}
		want := []*Record{
			{Time: time.Unix(0, nanos).UTC(), Medium: packet.MediumIEEE802154, RSSI: rssi, Raw: data, Truth: truth},
			{Time: time.Unix(0, nanos).UTC(), Medium: packet.MediumWiFi, RSSI: rssi, Raw: data},
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, rec := range want {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		for i, rec := range want {
			got, err := r.Read()
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !got.Time.Equal(rec.Time) || got.Medium != rec.Medium ||
				math.Float64bits(got.RSSI) != math.Float64bits(rec.RSSI) || !bytes.Equal(got.Raw, rec.Raw) {
				t.Fatalf("record %d read back as %+v, was written as %+v", i, got, rec)
			}
			if (got.Truth == nil) != (rec.Truth == nil) || got.Truth != nil && *got.Truth != *rec.Truth {
				t.Fatalf("record %d truth read back as %+v, was written as %+v", i, got.Truth, rec.Truth)
			}
		}
		if _, err := r.Read(); !errors.Is(err, io.EOF) {
			t.Fatalf("after the written records: %v, want io.EOF", err)
		}
	})
}

// readStream reads data as a trace stream to its first error, checking
// each record against the input's length and the record before it.
func readStream(t *testing.T, data []byte) {
	r := NewReader(bytes.NewReader(data))
	var prev, prevCopy []byte
	for {
		rec, err := r.Read()
		if err != nil {
			return
		}
		if len(rec.Raw) > len(data) {
			t.Fatalf("a %d-byte Raw from %d bytes of input", len(rec.Raw), len(data))
		}
		for i := range rec.Raw {
			rec.Raw[i] ^= 0xFF
		}
		if !bytes.Equal(prev, prevCopy) {
			t.Fatal("two successive records share memory: flipping the second's Raw changed the first's")
		}
		prev, prevCopy = rec.Raw, bytes.Clone(rec.Raw)
	}
}
