package module

import (
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// spinModule busy-spins for cost on every packet whose number is a
// multiple of every (0 = never): a module of known cost.
type spinModule struct {
	fakeModule
	cost  time.Duration
	every int
}

func (s *spinModule) HandlePacket(c *packet.Captured) {
	n := s.packets
	s.fakeModule.HandlePacket(c)
	if s.every == 0 || n%s.every != 0 {
		return
	}
	for start := time.Now(); time.Since(start) < s.cost; {
	}
}

// feedBatches hands the manager n packets in batches of size (the last
// one shorter).
func feedBatches(m *Manager, n, size int) {
	c := &packet.Captured{Time: time.Unix(0, 0), Kind: packet.KindUDP}
	batch := make([]*packet.Captured, size)
	for i := range batch {
		batch[i] = c
	}
	for ; n > 0; n -= len(batch) {
		if n < len(batch) {
			batch = batch[:n]
		}
		m.HandleBatch(batch)
	}
}

// TestSampledPacketsDoNotAlias pins the sampling decision itself:
// exactly one packet of every block of 16 is timed, packet 0 among them
// (so the shortest run has an observation), and no traffic period gets
// more or less than its share of the timed packets — with a fixed offset
// in the block, frames recurring every 2, 4, 8 or 16 packets are timed
// always or never.
func TestSampledPacketsDoNotAlias(t *testing.T) {
	const stride, packets = 16, 1 << 16
	if !sampled(0) {
		t.Error("packet 0 is not a timed one")
	}
	var timed []int
	for block := 0; block < packets/stride; block++ {
		in := 0
		for n := block * stride; n < (block+1)*stride; n++ {
			if sampled(uint64(n)) {
				timed = append(timed, n)
				in++
			}
		}
		if in != 1 {
			t.Fatalf("block %d has %d timed packets, want 1", block, in)
		}
	}
	for _, period := range []int{2, 3, 4, 5, 7, 8, 16, 32} {
		for phase := 0; phase < period; phase++ {
			hits := 0
			for _, n := range timed {
				if n%period == phase {
					hits++
				}
			}
			// The estimate a module would get if it cost something on
			// exactly these packets, against the truth.
			estimate, truth := float64(hits*stride), float64(packets/period)
			if estimate < 0.75*truth || estimate > 1.25*truth {
				t.Errorf("packets ≡ %d mod %d: %d timed, an estimate of %.0f for %.0f",
					phase, period, hits, estimate, truth)
			}
		}
	}
}

// TestModuleTimingEstimator pins what kalis_module_packet_seconds is
// since the packet path stopped reading the clock around every
// invocation: one packet in every block of 16 (counted across batches)
// is timed, and each of its observations counts 16. The literals below
// are the contract: change the stride or the weight alone and the counts
// no longer match the invocations.
func TestModuleTimingEstimator(t *testing.T) {
	const (
		stride  = 16
		packets = 4096
		cost    = 20 * time.Microsecond
	)
	for _, size := range []int{1, 7, 64} {
		// Wall-clock noise (a descheduled test, weighted 16) can only
		// inflate a sum: the counts are checked on every attempt, the
		// upper bounds on the best of three.
		for attempt := 1; ; attempt++ {
			m, _ := newTestManager(true)
			spin := &spinModule{fakeModule: fakeModule{name: "spin", kind: KindDetection}, cost: cost, every: 1}
			free := &fakeModule{name: "free", kind: KindDetection}
			// Expensive on one packet in 5 (coprime with the stride) and
			// on one in 4 (divides it).
			fifth := &spinModule{fakeModule: fakeModule{name: "fifth", kind: KindDetection}, cost: cost, every: 5}
			fourth := &spinModule{fakeModule: fakeModule{name: "fourth", kind: KindDetection}, cost: cost, every: 4}
			m.Install(spin, nil)
			m.Install(free, nil)
			m.Install(fifth, nil)
			m.Install(fourth, nil)
			lat := wireSupervisorMetrics(m).HistogramVec("kalis_module_packet_seconds", "module", "t", nil)

			// A multiple of the stride: the estimated count is exact.
			feedBatches(m, packets, size)
			for _, mod := range []*fakeModule{&spin.fakeModule, free, &fifth.fakeModule, &fourth.fakeModule} {
				if got := lat.With(mod.name).Count(); mod.packets != packets || got != packets {
					t.Fatalf("batches of %d: %s invoked %d times, histogram count %d, want %d and %d",
						size, mod.name, mod.packets, got, packets, packets)
				}
			}

			// Every timed invocation of spin took at least cost, so its
			// estimate cannot fall below packets × cost; fifth and fourth
			// are timed on about their share of expensive packets (848 for
			// 820 and 1040 for 1024 here). The upper halves of the bands
			// are 2× for the spinning modules, and the free module's mean
			// is its own — a clock-read pair, far below a tenth of its
			// neighbours' cost.
			ok := true
			for _, b := range []struct {
				name   string
				lo, hi time.Duration
			}{
				{"spin", packets * cost, 2 * packets * cost},
				{"fifth", (packets / 5) * cost * 3 / 4, 2 * (packets / 5) * cost},
				{"fourth", (packets / 4) * cost * 3 / 4, 2 * (packets / 4) * cost},
				{"free", 0, packets * cost / 10},
			} {
				sum := lat.With(b.name).Sum()
				if sum < b.lo {
					t.Fatalf("batches of %d: %s sum %v, want at least %v", size, b.name, sum, b.lo)
				}
				if sum > b.hi {
					ok = false
					if attempt == 3 {
						t.Errorf("batches of %d: %s sum %v, want at most %v", size, b.name, sum, b.hi)
					}
				}
			}
			if !ok && attempt < 3 {
				continue
			}

			// Off a multiple the count stays within one stride of the
			// invocations, and is back on them after a whole stride.
			for i := 1; i <= stride; i++ {
				feedBatches(m, 1, 1)
				got, want := lat.With("free").Count(), uint64(packets+i)
				if got%stride != 0 || got+stride <= want || want+stride <= got {
					t.Fatalf("batches of %d: histogram count %d after %d invocations", size, got, want)
				}
			}
			if got := lat.With("free").Count(); got != packets+stride {
				t.Errorf("batches of %d: histogram count %d after %d invocations", size, got, packets+stride)
			}
			break
		}
	}
}

// TestModuleTimingAfterMidStrideActivation: a module activated after its
// block's timed packet is first observed on the next block's, and its
// count never runs ahead of its invocations by a stride.
func TestModuleTimingAfterMidStrideActivation(t *testing.T) {
	const stride = 16
	m, kb := newTestManager(true)
	late := &fakeModule{name: "late", kind: KindDetection, watch: []string{"Multihop"},
		required: func(kb *knowledge.Base) bool { v, _ := kb.Bool("Multihop"); return v }}
	m.Install(late, nil)
	h := wireSupervisorMetrics(m).HistogramVec("kalis_module_packet_seconds", "module", "t", nil).With("late")

	feedBatches(m, 5, 1) // packets 0…4, packet 0 the timed one: not active
	kb.PutBool("Multihop", true)
	var want uint64
	for n := 5; n < 4*stride; n++ { // late's first packet is number 5
		feedBatches(m, 1, 1)
		if sampled(uint64(n)) {
			want += stride
		}
		invocations := uint64(late.packets)
		if got := h.Count(); got != want || got >= invocations+stride {
			t.Fatalf("after packet %d: count %d, want %d (%d invocations)", n, got, want, invocations)
		}
		if n == stride-1 && want != 0 {
			t.Fatalf("observed %d before block 1 began", want)
		}
	}
	if want != 3*stride {
		t.Errorf("count %d after blocks 1, 2 and 3, want %d", want, 3*stride)
	}
}

// TestNoModuleTimingWithoutPacketLatency: without a PacketLatency
// histogram no module carries one and the flow-update sample, the other
// user of the timed packet, still takes its one unweighted observation
// per stride.
func TestNoModuleTimingWithoutPacketLatency(t *testing.T) {
	m, _ := newTestManager(true)
	mod := &fakeModule{name: "M", kind: KindDetection}
	m.Install(mod, nil)
	tel := telemetry.NewRegistry()
	flowLat := tel.Histogram("kalis_flow_update_seconds", "t", nil)
	m.SetMetrics(ManagerMetrics{FlowUpdate: flowLat})

	feedBatches(m, 64, 7)
	if m.timed || len(m.snap) != 1 || m.snap[0].lat != nil {
		t.Errorf("timed = %v, snapshot %+v: a module is timed without PacketLatency", m.timed, m.snap)
	}
	if mod.packets != 64 || flowLat.Count() != 4 {
		t.Errorf("%d invocations, %d flow-update observations, want 64 and 4", mod.packets, flowLat.Count())
	}
}
