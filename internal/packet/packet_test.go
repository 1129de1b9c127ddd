package packet

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

// TestColonHex: the hand-placed digits are what fmt rendered before.
func TestColonHex(t *testing.T) {
	prop := func(a [6]byte) bool {
		return ColonHex(a) == fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if got := ColonHex([6]byte{0, 0x0f, 0xf0, 0xff, 0x1a, 0xa1}); got != "00:0f:f0:ff:1a:a1" {
		t.Errorf("ColonHex = %q", got)
	}
}

func TestMediumString(t *testing.T) {
	cases := map[Medium]string{
		MediumIEEE802154: "ieee802.15.4",
		MediumWiFi:       "wifi",
		MediumBluetooth:  "bluetooth",
		MediumWired:      "wired",
		Medium(42):       "medium(42)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindTCPSYN.String() != "TCPSYN" {
		t.Errorf("KindTCPSYN = %q", KindTCPSYN.String())
	}
	if KindCTPData.String() != "CTPData" {
		t.Errorf("KindCTPData = %q", KindCTPData.String())
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

type fakeLayer struct{ name string }

func (f fakeLayer) LayerName() string { return f.name }

func TestLayerLookup(t *testing.T) {
	c := &Captured{Layers: []Layer{fakeLayer{"a"}, fakeLayer{"b"}}}
	if l := c.Layer("b"); l == nil || l.LayerName() != "b" {
		t.Error("Layer(b) failed")
	}
	if c.Layer("zzz") != nil {
		t.Error("Layer(zzz) should be nil")
	}
}

func TestClone(t *testing.T) {
	orig := &Captured{
		Time:    time.Unix(1, 0),
		Medium:  MediumWiFi,
		RSSI:    -60,
		Src:     "a",
		Dst:     "b",
		Layers:  []Layer{fakeLayer{"x"}},
		Payload: []byte{1, 2, 3},
		Truth:   &GroundTruth{Attack: "sybil", Instance: 2},
	}
	cp := orig.Clone()
	cp.Payload[0] = 99
	cp.Truth.Instance = 7
	cp.Layers[0] = fakeLayer{"y"}
	if orig.Payload[0] != 1 {
		t.Error("payload aliased")
	}
	if orig.Truth.Instance != 2 {
		t.Error("truth aliased")
	}
	if orig.Layers[0].LayerName() != "x" {
		t.Error("layer slice aliased")
	}
}

func TestCloneNilFields(t *testing.T) {
	cp := (&Captured{Src: "a"}).Clone()
	if cp.Payload != nil || cp.Truth != nil || cp.Src != "a" {
		t.Errorf("clone of sparse capture: %+v", cp)
	}
}
