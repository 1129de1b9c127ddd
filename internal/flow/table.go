package flow

import (
	"sync"
	"time"

	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// The table's bounds, on the capture clock.
const (
	// IdleTimeout expires a flow that saw no packet for this long.
	IdleTimeout = 60 * time.Second
	// ActiveTimeout slices long-lived flows: a flow older than this is
	// exported and restarted on its next packet.
	ActiveTimeout = 5 * time.Minute
	// MaxFlows bounds the table; at capacity the least recently touched
	// flow is evicted (and exported).
	MaxFlows = 4096
	// SweepEvery is the packet interval between idle sweeps of the LRU
	// tail (on-touch expiry catches re-keyed flows; the sweep catches
	// flows that simply went quiet).
	SweepEvery = 256
)

// Config configures a flow table. It has no fields: the table's bounds
// are the constants above, and every table owns its trackers.
type Config struct{}

// Metrics are the table's optional telemetry hooks; zero-value fields
// are skipped (all telemetry types are nil-safe).
type Metrics struct {
	// Expirations counts flows exported by idle/active timeout.
	Expirations *telemetry.Counter
	// Evictions counts flows exported by the capacity bound.
	Evictions *telemetry.Counter
}

// ExportFunc consumes exported flow records.
type ExportFunc func(Record)

// Tracker is an endpoint-level aggregate updated once per packet by the
// table (see endpoint.go). Observe runs after the flow-level update,
// on the table owner's goroutine, outside the table lock.
type Tracker interface {
	// Observe folds in one capture; now is its capture time in
	// nanoseconds (Captured.Nanos).
	Observe(c *packet.Captured, now int64)
}

// Table is the flow table: a bounded map of live flows with an
// intrusive LRU list for eviction order, idle/active expiry on the
// capture clock, and per-flow feature accumulators.
//
// A table and its trackers belong to one goroutine at a time, its
// owner: Update, tracker acquire and release, and every tracker read
// run there (on a Kalis node, under the shard's dispatch token). Only
// Len (telemetry scrapes), Flush (shutdown), SetMetrics and OnExport
// may be called from elsewhere; they take t.mu, which guards the flows.
type Table struct {
	mu      sync.Mutex
	flows   map[handleKey]*flow
	lruHead *flow // most recently touched
	lruTail *flow // least recently touched
	toSweep int
	met     Metrics

	// exports is copy-on-write: Update snapshots the slice header under
	// mu and iterates after unlock.
	exports []ExportFunc

	// trk is the table's endpoint-tracker registry: the owner's alone,
	// so t.mu does not cover it.
	trk *Trackers
}

// NewTable creates a flow table.
func NewTable(Config) *Table {
	return &Table{
		flows:   make(map[handleKey]*flow),
		toSweep: SweepEvery,
		trk:     newTrackers(),
	}
}

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (t *Table) SetMetrics(met Metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.met = met
}

// OnExport registers a consumer for exported flow records. Callbacks
// run outside the table lock, on the goroutine that triggered the
// export (Update or Flush).
func (t *Table) OnExport(fn ExportFunc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	exports := make([]ExportFunc, len(t.exports), len(t.exports)+1)
	copy(exports, t.exports)
	t.exports = append(exports, fn)
}

// Len returns the number of live flows.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flows)
}

// Update folds one capture into the table: expiry on touch, flow
// creation (with LRU eviction at capacity), the flow's feature
// accumulators, an amortized idle sweep, and finally one
// Observe per registered endpoint tracker. The per-packet cost is O(1)
// in the table size and independent of any window length.
//
// A capture whose identities carry no handles (one built by hand
// without Captured.Identify) panics here, rather than share one flow
// and every tracker's state with every other such capture.
func (t *Table) Update(c *packet.Captured) {
	c.CheckHandles()
	now := c.Nanos()
	t.mu.Lock()
	k := keyOf(c)
	var exported []Record
	f := t.flows[k]
	if f != nil {
		// Expiry on touch: a stale entry is exported and the flow
		// restarts fresh from this packet.
		if now-f.lastNs > int64(IdleTimeout) {
			//lint:ignore hotalloc exports append only on idle expiry, amortized across the flow's packets
			exported = append(exported, t.removeLocked(f, ReasonIdle))
			f = nil
		} else if now-f.firstNs > int64(ActiveTimeout) {
			//lint:ignore hotalloc exports append only on active-timeout expiry, amortized across the flow's packets
			exported = append(exported, t.removeLocked(f, ReasonActive))
			f = nil
		}
	}
	if f == nil {
		if len(t.flows) >= MaxFlows && t.lruTail != nil {
			//lint:ignore hotalloc exports append only on LRU eviction at the MaxFlows ceiling
			exported = append(exported, t.removeLocked(t.lruTail, ReasonEvicted))
		}
		//lint:ignore hotalloc one allocation per new flow, amortized across the flow's packets
		f = &flow{key: k.named(c), first: c.Time, last: c.Time, hk: k, firstNs: now, lastNs: now}
		t.flows[k] = f
		t.pushFrontLocked(f)
	} else if t.lruHead != f {
		t.unlinkLocked(f)
		t.pushFrontLocked(f)
	}
	f.feats.update(f, c, now)
	f.last, f.lastNs = c.Time, now
	f.packets++
	f.bytes += uint64(len(c.Payload))

	t.toSweep--
	if t.toSweep <= 0 {
		t.toSweep = SweepEvery
		exported = t.sweepLocked(now, exported)
	}
	exports := t.exports
	t.mu.Unlock()

	for _, tr := range t.trk.observe {
		tr.Observe(c, now)
	}
	if len(exported) > 0 {
		for _, fn := range exports {
			for _, r := range exported {
				fn(r)
			}
		}
	}
}

// sweepLocked expires idle flows from the LRU tail. Because the list is
// in touch order, the walk stops at the first non-idle flow; combined
// with the SweepEvery amortization the cost stays O(1) per packet.
func (t *Table) sweepLocked(now int64, exported []Record) []Record {
	for t.lruTail != nil && now-t.lruTail.lastNs > int64(IdleTimeout) {
		exported = append(exported, t.removeLocked(t.lruTail, ReasonIdle))
	}
	return exported
}

// Flush exports every live flow with ReasonShutdown and empties the
// table.
func (t *Table) Flush() {
	t.mu.Lock()
	var exported []Record
	for t.lruTail != nil {
		exported = append(exported, t.removeLocked(t.lruTail, ReasonShutdown))
	}
	exports := t.exports
	t.mu.Unlock()
	for _, fn := range exports {
		for _, r := range exported {
			fn(r)
		}
	}
}

// removeLocked unlinks a flow, updates the counters and builds its
// export record. Callers must hold t.mu.
func (t *Table) removeLocked(f *flow, reason ExpiryReason) Record {
	delete(t.flows, f.hk)
	t.unlinkLocked(f)
	switch reason {
	case ReasonEvicted:
		t.met.Evictions.Inc()
	case ReasonIdle, ReasonActive:
		t.met.Expirations.Inc()
	}
	return Record{
		Key:      f.key,
		First:    f.first,
		Last:     f.last,
		Packets:  f.packets,
		Bytes:    f.bytes,
		Reason:   reason,
		Features: f.feats.emit(f, make([]Value, 0, maxValues)),
	}
}

func (t *Table) pushFrontLocked(f *flow) {
	f.prev = nil
	f.next = t.lruHead
	if t.lruHead != nil {
		t.lruHead.prev = f
	}
	t.lruHead = f
	if t.lruTail == nil {
		t.lruTail = f
	}
}

func (t *Table) unlinkLocked(f *flow) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		t.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		t.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}
