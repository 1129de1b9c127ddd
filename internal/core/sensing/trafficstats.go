package sensing

import (
	"cmp"
	"slices"
	"strconv"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// TrafficStatsName is the registry name of the Traffic Statistics
// Collection module.
const TrafficStatsName = "TrafficStatsModule"

// TrafficStats is the Traffic Statistics Collection sensing module
// (§V): it maintains the frequency of each type of traffic overheard in
// the network — "the number of packets per unit of time (configurable
// but set to 5 seconds by default)" — both for the whole network and
// for each individual monitored device, "to support an accurate
// detection of targeted DoS-like attacks".
//
// Frequencies are published as multilevel TrafficFrequency knowggets:
// "TrafficFrequency.TCPSYN" for the network-wide rate (packets/second)
// and "TrafficFrequency.TCPSYN@<entity>" for the rate of traffic
// destined to each device. Time comes from packet timestamps, so the
// module works identically on live capture and trace replay.
//
// The counters are dense: a per-kind array for the network and, per
// destination, a per-kind array found by the destination's identity
// handle. Each window roll publishes in a fixed order — every
// network-wide rate in kind order, then, kind by kind, each
// destination's in NodeID order — through pre-keyed knowledge.Entry
// values, and a rate is rendered once per distinct count, so a roll
// that re-publishes known counts for known destinations allocates
// nothing.
type TrafficStats struct {
	ctx      *module.Context
	interval time.Duration

	started     bool
	windowStart int64 // capture nanoseconds
	kinds       [packet.NumKinds]kindCount
	dsts        packet.ByHandle[dstCounts]
	// listed holds, per kind and sorted by NodeID, the destinations with
	// traffic of that kind this window or a rate published last window
	// (which a quiet window publishes as 0).
	listed [packet.NumKinds][]listedDst
	// rates[n] is the rendered rate of a count of n, "" until needed.
	rates []string
}

// kindCount is the network-wide counter of one kind.
type kindCount struct {
	n int
	// published is set while the kind's last published rate is non-zero.
	published bool
	keyed     bool
	entry     knowledge.Entry
}

// dstCounts are one destination's counters.
type dstCounts struct {
	id packet.NodeID
	n  [packet.NumKinds]int
	// listed has bit k set while the destination is on listed[k];
	// published while its last rate for kind k is non-zero.
	listed, published uint32
	entries           []kindEntry
}

type kindEntry struct {
	kind  packet.Kind
	entry knowledge.Entry
}

type listedDst struct {
	h  packet.Handle
	id packet.NodeID
}

// maxCachedRate bounds the rendered-rate cache; larger counts are
// rendered per put.
const maxCachedRate = 1 << 16

var _ module.Module = (*TrafficStats)(nil)

// NewTrafficStats creates the module. Parameters: "interval" (Go
// duration, default "5s").
func NewTrafficStats(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&TrafficStats{interval: p.Duration("interval", 5*time.Second)})
}

// Name implements module.Module.
func (t *TrafficStats) Name() string { return TrafficStatsName }

// Kind implements module.Module.
func (t *TrafficStats) Kind() module.Kind { return module.KindSensing }

// WatchLabels implements module.Module.
func (t *TrafficStats) WatchLabels() []string { return nil }

// Required implements module.Module: traffic statistics underpin every
// anomaly-based detector and are always required.
func (t *TrafficStats) Required(*knowledge.Base) bool { return true }

// Activate implements module.Module.
func (t *TrafficStats) Activate(ctx *module.Context) {
	t.ctx = ctx
	t.started = false
	t.kinds = [packet.NumKinds]kindCount{}
	t.dsts.Reset()
	for k := range t.listed {
		t.listed[k] = t.listed[k][:0]
	}
}

// Deactivate implements module.Module.
func (t *TrafficStats) Deactivate() { t.ctx = nil }

// HandlePacket implements module.Module.
func (t *TrafficStats) HandlePacket(c *packet.Captured) {
	now := c.Nanos()
	if !t.started {
		t.started, t.windowStart = true, now
	}
	// Close out full windows (handles idle gaps spanning several
	// intervals by publishing only the window that had traffic; rates
	// decay naturally as new windows publish lower counts).
	interval := int64(t.interval)
	for now-t.windowStart >= interval {
		t.publish()
		t.windowStart += interval
		if now-t.windowStart >= 10*interval {
			// Long silence: jump to the current window.
			t.windowStart = packet.TruncateNanos(now, t.interval)
		}
	}
	if int(c.Kind) >= packet.NumKinds {
		return
	}
	t.kinds[c.Kind].n++
	if c.DstH == 0 {
		return
	}
	d, fresh := t.dsts.Put(c.DstH)
	if fresh {
		d.id = c.Dst
	}
	d.n[c.Kind]++
	if bit := uint32(1) << c.Kind; d.listed&bit == 0 {
		d.listed |= bit
		t.list(c.Kind, listedDst{h: c.DstH, id: d.id})
	}
}

// list inserts a destination into the kind's sorted list.
func (t *TrafficStats) list(k packet.Kind, e listedDst) {
	l := t.listed[k]
	i, _ := slices.BinarySearchFunc(l, e.id, func(x listedDst, id packet.NodeID) int { return cmp.Compare(x.id, id) })
	t.listed[k] = slices.Insert(l, i, e)
}

// publish puts the window's rates — first every network-wide rate in
// kind order, then, kind by kind, each destination's in NodeID order; a
// kind or destination that published a rate last window and had no
// traffic in this one gets rate 0 — and zeroes the counters.
//
//lint:coldpath publish runs once per stats interval tick; entries are keyed and rates rendered once, so a steady roll allocates nothing
func (t *TrafficStats) publish() {
	kb := t.ctx.KB
	for k := range t.kinds {
		kc := &t.kinds[k]
		if kc.n > 0 || kc.published {
			if !kc.keyed {
				kc.entry, kc.keyed = kb.Entry(knowledge.LabelTrafficFrequency+"."+packet.Kind(k).String(), "", false), true
			}
			kb.PutEntry(&kc.entry, t.rate(kc.n))
			kc.published, kc.n = kc.n > 0, 0
		}
	}
	for k := range t.listed {
		kept := 0
		for _, e := range t.listed[k] {
			d := t.dsts.Get(e.h)
			if d == nil {
				continue // the identity was evicted
			}
			n, bit := d.n[k], uint32(1)<<k
			if n > 0 || d.published&bit != 0 {
				kb.PutEntry(t.entryOf(d, packet.Kind(k)), t.rate(n))
			}
			d.n[k] = 0
			if n == 0 {
				d.published &^= bit
				d.listed &^= bit
				continue
			}
			d.published |= bit
			t.listed[k][kept] = e
			kept++
		}
		clear(t.listed[k][kept:])
		t.listed[k] = t.listed[k][:kept]
	}
}

// entryOf returns the destination's entry for the kind, keying it on
// first use.
func (t *TrafficStats) entryOf(d *dstCounts, k packet.Kind) *knowledge.Entry {
	for i := range d.entries {
		if d.entries[i].kind == k {
			return &d.entries[i].entry
		}
	}
	label := knowledge.LabelTrafficFrequency + "." + k.String()
	d.entries = append(d.entries, kindEntry{kind: k, entry: t.ctx.KB.Entry(label, string(d.id), false)})
	return &d.entries[len(d.entries)-1].entry
}

// rate renders the rate of n packets in one interval.
func (t *TrafficStats) rate(n int) string {
	if n < len(t.rates) && t.rates[n] != "" {
		return t.rates[n]
	}
	r := formatRate(float64(n) / t.interval.Seconds())
	if n < maxCachedRate {
		if n >= len(t.rates) {
			t.rates = slices.Grow(t.rates, n+1-len(t.rates))[:n+1]
		}
		t.rates[n] = r
	}
	return r
}

func formatRate(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
