package flow

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

var t0 = time.Unix(1500000000, 0).UTC()

// cap1 builds a minimal capture for table tests: an ICMP echo request
// keys purely on medium + endpoints.
func cap1(src, dst packet.NodeID, at time.Time) *packet.Captured {
	return (&packet.Captured{
		Time:   at,
		Medium: packet.MediumWiFi,
		Kind:   packet.KindICMPEchoRequest,
		Src:    src,
		Dst:    dst,
		RSSI:   -60,
	}).Identify()
}

// collectRecords registers an export hook appending into the returned
// slice (single-goroutine tests only).
func collectRecords(t *Table) *[]Record {
	var recs []Record
	t.OnExport(func(r Record) { recs = append(recs, r) })
	return &recs
}

// countedTable builds a table whose expirations and evictions are
// counted by telemetry counters.
func countedTable() (tbl *Table, expirations, evictions *telemetry.Counter) {
	reg := telemetry.NewRegistry()
	expirations = reg.Counter("test_flow_exp", "t")
	evictions = reg.Counter("test_flow_ev", "t")
	tbl = NewTable(Config{})
	tbl.SetMetrics(Metrics{Expirations: expirations, Evictions: evictions})
	return tbl, expirations, evictions
}

// fill adds flows from distinct sources "f0", "f1", … until the table
// holds n, one packet each, a microsecond apart from at on.
func fill(tbl *Table, n int, at time.Time) time.Time {
	for i := 0; tbl.Len() < n; i++ {
		at = at.Add(time.Microsecond)
		tbl.Update(cap1(packet.NodeID(fmt.Sprintf("f%d", i)), "sink", at))
	}
	return at
}

func TestExpiryIdleVsActive(t *testing.T) {
	cases := []struct {
		name string
		// gaps are the inter-packet gaps of one flow after its first
		// packet at t0.
		gaps       []time.Duration
		wantReason ExpiryReason
		// wantPackets is the packet count of the exported record.
		wantPackets uint64
	}{
		{
			name:        "idle timeout exports the stale flow on touch",
			gaps:        []time.Duration{time.Second, IdleTimeout + time.Second},
			wantReason:  ReasonIdle,
			wantPackets: 2,
		},
		{
			name: "active timeout slices a long-lived flow",
			gaps: []time.Duration{55 * time.Second, 55 * time.Second, 55 * time.Second,
				55 * time.Second, 55 * time.Second, 55 * time.Second},
			// The 7th packet arrives 5m30s after First, every gap under
			// the idle bound: the flow is exported with the 6 packets
			// seen so far and restarts.
			wantReason:  ReasonActive,
			wantPackets: 6,
		},
		{
			name: "idle wins over active when both elapsed",
			gaps: []time.Duration{ActiveTimeout + time.Minute},
			// One gap past both bounds: on-touch expiry checks idle
			// first (the flow went quiet before it grew old).
			wantReason:  ReasonIdle,
			wantPackets: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl, exps, evs := countedTable()
			recs := collectRecords(tbl)
			at := t0
			tbl.Update(cap1("A", "B", at))
			for _, gap := range tc.gaps {
				at = at.Add(gap)
				tbl.Update(cap1("A", "B", at))
			}
			if len(*recs) != 1 {
				t.Fatalf("got %d records, want 1: %+v", len(*recs), *recs)
			}
			r := (*recs)[0]
			if r.Reason != tc.wantReason {
				t.Errorf("reason = %v, want %v", r.Reason, tc.wantReason)
			}
			if r.Packets != tc.wantPackets {
				t.Errorf("packets = %d, want %d", r.Packets, tc.wantPackets)
			}
			// The triggering packet restarted the flow.
			if tbl.Len() != 1 {
				t.Errorf("live flows = %d, want 1", tbl.Len())
			}
			if exps.Value() != 1 || evs.Value() != 0 {
				t.Errorf("counters = (%v expirations, %v evictions), want (1, 0)", exps.Value(), evs.Value())
			}
		})
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	tbl, _, evs := countedTable()
	recs := collectRecords(tbl)
	at := t0
	next := func(src packet.NodeID) {
		at = at.Add(time.Millisecond)
		tbl.Update(cap1(src, "sink", at))
	}
	next("A")
	next("B")
	next("C")
	next("A") // refresh A: B becomes least recently used
	at = fill(tbl, MaxFlows, at)
	next("D") // at capacity: evicts B
	next("E") // evicts C
	next("F") // evicts A

	var got []packet.NodeID
	for _, r := range *recs {
		if r.Reason != ReasonEvicted {
			t.Errorf("reason = %v, want evicted", r.Reason)
		}
		got = append(got, r.Key.Src)
	}
	want := []packet.NodeID{"B", "C", "A"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("eviction order = %v, want %v", got, want)
	}
	if tbl.Len() != MaxFlows {
		t.Errorf("live flows = %d, want %d", tbl.Len(), MaxFlows)
	}
	if evs.Value() != 3 {
		t.Errorf("evictions = %v, want 3", evs.Value())
	}
}

func TestSweepExportsQuietFlows(t *testing.T) {
	tbl := NewTable(Config{})
	recs := collectRecords(tbl)
	// Two flows that go quiet forever.
	tbl.Update(cap1("quiet1", "x", t0))
	tbl.Update(cap1("quiet2", "x", t0.Add(time.Second)))
	// Unrelated traffic advances capture time past the idle bound; the
	// amortized sweep must export the quiet flows even though their
	// keys are never touched again — on the SweepEvery-th packet, not
	// before.
	at := t0.Add(IdleTimeout + 10*time.Second)
	for i := 2; i < SweepEvery; i++ {
		if len(*recs) != 0 {
			t.Fatalf("packet %d: %d records before the sweep was due", i, len(*recs))
		}
		at = at.Add(time.Millisecond)
		tbl.Update(cap1("chatty", "y", at))
	}
	if len(*recs) != 2 {
		t.Fatalf("got %d records, want 2 (sweep missed quiet flows): %+v", len(*recs), *recs)
	}
	for _, r := range *recs {
		if r.Reason != ReasonIdle {
			t.Errorf("reason = %v, want idle", r.Reason)
		}
	}
}

func TestFlushExportsEverything(t *testing.T) {
	tbl := NewTable(Config{})
	recs := collectRecords(tbl)
	tbl.Update(cap1("A", "B", t0))
	tbl.Update(cap1("C", "D", t0.Add(time.Second)))
	tbl.Flush()
	if len(*recs) != 2 {
		t.Fatalf("got %d records, want 2", len(*recs))
	}
	for _, r := range *recs {
		if r.Reason != ReasonShutdown {
			t.Errorf("reason = %v, want shutdown", r.Reason)
		}
	}
	if tbl.Len() != 0 {
		t.Errorf("live flows after flush = %d, want 0", tbl.Len())
	}
}

func TestMetricsHooks(t *testing.T) {
	tbl, exps, evs := countedTable()
	at := fill(tbl, MaxFlows, t0)
	tbl.Update(cap1("C", "D", at.Add(time.Millisecond)))               // evicts f0>sink
	tbl.Update(cap1("C", "D", at.Add(IdleTimeout+2*time.Millisecond))) // idle-expires C>D
	if got := tbl.Len(); got != MaxFlows {
		t.Errorf("live flows = %v, want %d", got, MaxFlows)
	}
	if got := evs.Value(); got != 1 {
		t.Errorf("evictions counter = %v, want 1", got)
	}
	if got := exps.Value(); got != 1 {
		t.Errorf("expirations counter = %v, want 1", got)
	}
}

// TestNewFlowAllocs: a new flow costs one allocation — the flow, its
// five feature accumulators inline — and a packet of a live flow none.
func TestNewFlowAllocs(t *testing.T) {
	const runs = 4000
	caps := make([]*packet.Captured, runs+1) // AllocsPerRun warms up once
	for i := range caps {
		caps[i] = cap1(packet.NodeID(fmt.Sprintf("n%d", i)), "sink", t0.Add(time.Duration(i)*time.Microsecond))
	}
	tbl := NewTable(Config{})
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		tbl.Update(caps[i])
		i++
	}); got != 1 {
		t.Errorf("new flow: %v allocations, want 1", got)
	}
	c := caps[0]
	if got := testing.AllocsPerRun(1000, func() {
		c.Time = c.Time.Add(time.Microsecond)
		tbl.Update(c)
	}); got != 0 {
		t.Errorf("steady-state update: %v allocations, want 0", got)
	}
}

func TestKeyOfAndString(t *testing.T) {
	c := cap1("A", "B", t0)
	k := keyOf(c).named(c)
	if k.Proto != ProtoICMP || k.Src != "A" || k.Dst != "B" || k.Medium != packet.MediumWiFi {
		t.Errorf("key = %+v", k)
	}
	if k.SrcPort != 0 || k.DstPort != 0 {
		t.Errorf("ICMP key has ports: %+v", k)
	}
	if got, want := k.String(), "wifi/icmp/A>B"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	// Distinct kinds of the same class share a flow; distinct classes
	// do not.
	c2 := cap1("A", "B", t0)
	c2.Kind = packet.KindICMPEchoReply
	if keyOf(c2).named(c2) != k {
		t.Error("echo request and reply should share a flow key")
	}
	c3 := cap1("A", "B", t0)
	c3.Kind = packet.KindUDP
	if keyOf(c3).named(c3) == k {
		t.Error("UDP and ICMP must not share a flow key")
	}
}

// TestChurnRace drives one table by the single-owner contract: one
// goroutine — the owner — runs packet updates on overlapping keys and
// on enough one-off keys to overflow MaxFlows, interleaved with tracker
// acquire, read and release; others run what may be called from
// elsewhere — Len, metric reads and Flush — to let the race detector
// prove the table's locking. Run with -race.
func TestChurnRace(t *testing.T) {
	tbl, exps, evs := countedTable()
	var exported sync.Map
	tbl.OnExport(func(r Record) { exported.Store(r.Key, r.Packets) })

	const packets = 32000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := t0
		for i := 0; i < packets; i++ {
			if i == packets*4/5 {
				at = at.Add(IdleTimeout) // every flow so far goes idle
			}
			at = at.Add(time.Duration(1+i%7) * time.Millisecond)
			src := packet.NodeID(fmt.Sprintf("n%d", i%48))
			if i%4 != 0 {
				src = packet.NodeID(fmt.Sprintf("w%d", i))
			}
			c := cap1(src, "sink", at)
			c.Transmitter = src
			tbl.Update(c.Identify())
			if i%40 == 0 {
				// Tracker churn between packets, as module activation
				// and deactivation run between a shard's packets.
				vw := tbl.VictimWindow(MaskOf(packet.KindICMPEchoRequest), 5*time.Second)
				hs := tbl.Handshakes(5 * time.Second)
				ids := tbl.IdentityStats(0.3, packet.MediumWiFi)
				_ = vw.Len(hid("sink"), nanos(at))
				hs.Release()
				ids.Release()
				vw.Release()
			}
		}
	}()
	// Metric reads and a mid-run flush.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tbl.Len()
				exps.Value()
				evs.Value()
				if g == 1 && i == 250 {
					tbl.Flush()
				}
			}
		}()
	}
	wg.Wait()
	if evs.Value() == 0 || exps.Value() == 0 {
		t.Errorf("counters = (%v expirations, %v evictions): churn never reached a bound", exps.Value(), evs.Value())
	}
	tbl.Flush()
	if tbl.Len() != 0 {
		t.Errorf("live flows after flush = %d, want 0", tbl.Len())
	}
}

// obs is a capture as a table hands it to a tracker: with its identity
// handles and its capture nanoseconds.
func obs(c *packet.Captured) (*packet.Captured, int64) { return c.Identify(), c.Nanos() }

// hid is the identity handle of a test NodeID.
func hid(id packet.NodeID) packet.Handle { return packet.HandleOf(id) }

// nanos is a test time as capture nanoseconds.
func nanos(t time.Time) int64 { return t.UnixNano() }
