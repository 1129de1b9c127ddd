package packet

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
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

// TestKindNamesDistinct: every Kind constant below NumKinds has its own
// name, none of them the fallback rendering — a constant added without a
// name would publish TrafficFrequency under "Kind(n)".
func TestKindNamesDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(0); int(k) < NumKinds; k++ {
		name := k.String()
		if name == "" || name == fmt.Sprintf("Kind(%d)", int(k)) {
			t.Errorf("kind %d has no name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both %q", int(prev), int(k), name)
		}
		seen[name] = k
	}
	if KindARP.String() != "ARP" || int(KindARP) != NumKinds-1 {
		t.Errorf("KindARP is not the last kind: NumKinds = %d", NumKinds)
	}
}

// TestCapturedSize pins the capture envelope: the identity handles live
// in what were the padding bytes of Medium and Kind, so a frame costs
// what it cost before handles existed.
func TestCapturedSize(t *testing.T) {
	if got := unsafe.Sizeof(Captured{}); got != 152 {
		t.Errorf("unsafe.Sizeof(Captured{}) = %d, want 152", got)
	}
}

// TestTruncateNanos: the long-silence window jump in nanoseconds lands
// where Captured.Time.Truncate does — relative to year 1, not to the
// Unix epoch — for intervals that divide the epoch offset and ones that
// do not, and for times in any location.
func TestTruncateNanos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	intervals := []time.Duration{time.Second, 5 * time.Second, 7 * time.Second, 1300 * time.Millisecond,
		11 * time.Minute, 7 * time.Hour, 3*time.Hour + 17*time.Second + 5, time.Nanosecond, 0, -time.Second}
	locs := []*time.Location{time.UTC, time.FixedZone("x", 5*3600+1800)}
	for i := 0; i < 2000; i++ {
		at := time.Unix(1500000000+rng.Int63n(400000000), rng.Int63n(1e9)).In(locs[i%2])
		d := intervals[i%len(intervals)]
		if got, want := TruncateNanos(at.UnixNano(), d), at.Truncate(d).UnixNano(); got != want {
			t.Fatalf("TruncateNanos(%v, %v) = %d, time.Truncate gives %d", at, d, got, want)
		}
	}
	// A 7 s grid is not the Unix epoch's: the two differ here.
	at := time.Unix(1500000003, 0)
	if TruncateNanos(at.UnixNano(), 7*time.Second) == at.UnixNano()/int64(7*time.Second)*int64(7*time.Second) {
		t.Error("a 7 s window grid coincides with the Unix epoch's; the year-1 rule is not exercised")
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
