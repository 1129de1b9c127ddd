package stack

import (
	"bytes"
	"reflect"
	"testing"

	"kalis/internal/packet"
)

// outerEncoder is what the Data Store's disk log and the durable window
// log need of a frame's outermost layer: the bytes it re-encodes to.
type outerEncoder interface {
	Encode() []byte
	AppendEncode(dst []byte) []byte
}

// FuzzOuterEncode pins the encoders the logs depend on. The logs keep
// no captured bytes: they write the outermost layer's re-encoding of
// what Decode produced, and a restart decodes that. For any bytes
// Decode accepts on a medium:
//
//   - the outermost layer (802.15.4 frame, 802.11 frame or BLE PDU)
//     encodes, and AppendEncode(prefix) leaves prefix as it was and
//     appends exactly what Encode returns;
//   - decoding that encoding succeeds with the same layers, kind and
//     identities.
//
// The encoding need not equal the input: a few fields Decode drops are
// written back as zero (DESIGN.md §9 lists them).
func FuzzOuterEncode(f *testing.F) {
	for _, s := range builtFrames() {
		f.Add(uint8(s.medium), s.raw, []byte{0xa5, 0x5a, 0xa5})
	}
	f.Fuzz(func(t *testing.T, medium uint8, raw, prefix []byte) {
		m := packet.Medium(medium)
		c, err := Decode(m, append([]byte(nil), raw...))
		if err != nil {
			return
		}
		outer, ok := c.Layers[0].(outerEncoder)
		if !ok {
			t.Fatalf("%v frame % x: outermost layer %T cannot re-encode", m, raw, c.Layers[0])
		}
		enc := outer.Encode()
		dst := append(make([]byte, 0, len(prefix)+len(enc)/2), prefix...) // room for some, not all
		got := outer.AppendEncode(dst)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%v frame % x: AppendEncode changed its prefix % x to % x", m, raw, prefix, got[:len(prefix)])
		}
		if !bytes.Equal(got[len(prefix):], enc) {
			t.Fatalf("%v frame % x: AppendEncode appended % x, Encode returns % x", m, raw, got[len(prefix):], enc)
		}

		again, err := Decode(m, enc)
		if err != nil {
			t.Fatalf("%v frame % x re-encodes to % x, which does not decode: %v", m, raw, enc, err)
		}
		if again.Kind != c.Kind || again.Src != c.Src || again.Dst != c.Dst || again.Transmitter != c.Transmitter {
			t.Fatalf("%v frame % x: re-encoded frame decodes as %v %s -> %s via %s, the capture as %v %s -> %s via %s",
				m, raw, again.Kind, again.Src, again.Dst, again.Transmitter, c.Kind, c.Src, c.Dst, c.Transmitter)
		}
		if len(again.Layers) != len(c.Layers) {
			t.Fatalf("%v frame % x: re-encoded frame decodes to %d layers, the capture to %d", m, raw, len(again.Layers), len(c.Layers))
		}
		for i, l := range c.Layers {
			if !reflect.DeepEqual(again.Layers[i], l) {
				t.Fatalf("%v frame % x: layer %d re-decodes as %+v, was %+v", m, raw, i, again.Layers[i], l)
			}
		}
	})
}
