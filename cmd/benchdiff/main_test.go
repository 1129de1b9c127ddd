package main

import "testing"

const sampleOutput = `goos: linux
goarch: amd64
pkg: kalis
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProtocolDecode/tcp-wifi-2         	 3452834	       352.4 ns/op	     384 B/op	       1 allocs/op
BenchmarkProtocolDecode/tcp-wifi-2         	 3302480	       342.2 ns/op	     384 B/op	       2 allocs/op
BenchmarkProtocolDecode/ctp-data-2         	 4516322	       237.0 ns/op	     288 B/op	       1 allocs/op
BenchmarkFlowTable/flows=16-2              	 1000000	       158.0 ns/op
PASS
ok  	kalis	28.767s
`

func TestParseBenchOutput(t *testing.T) {
	got, cpu := parseBenchOutput(sampleOutput)
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	want := map[string]result{
		"BenchmarkProtocolDecode/tcp-wifi": {ns: 342.2, allocs: 1},
		"BenchmarkProtocolDecode/ctp-data": {ns: 237.0, allocs: 1},
		"BenchmarkFlowTable/flows=16":      {ns: 158.0, allocs: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

// TestCompareSuiteGatesAllocs: ns/op has a budget, allocs/op has none —
// one more allocation fails a suite that records allocs_per_op, and
// passes one that does not.
func TestCompareSuiteGatesAllocs(t *testing.T) {
	name := "BenchmarkProtocolDecode/tcp-wifi"
	gated := &suite{NsPerOp: map[string]float64{name: 350}, AllocsPerOp: map[string]float64{name: 1}}
	ungated := &suite{NsPerOp: map[string]float64{name: 350}}
	cases := []struct {
		s    *suite
		got  result
		pass bool
	}{
		{gated, result{ns: 360, allocs: 1}, true},
		{gated, result{ns: 300, allocs: 0}, true},
		{gated, result{ns: 300, allocs: 2}, false},
		{gated, result{ns: 500, allocs: 1}, false},
		{ungated, result{ns: 300, allocs: 13}, true},
	}
	for _, c := range cases {
		if ok := compareSuite(c.s, map[string]result{name: c.got}, 0.25); ok != c.pass {
			t.Errorf("compareSuite(allocs gated %v, %+v) = %v, want %v", c.s.AllocsPerOp != nil, c.got, ok, c.pass)
		}
	}
	if compareSuite(gated, map[string]result{}, 0.25) {
		t.Error("a benchmark missing from the run passed")
	}
}
