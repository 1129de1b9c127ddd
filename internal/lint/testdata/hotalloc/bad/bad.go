// Package bad violates hotalloc: per-packet heap allocations of every
// flavor the rule knows — pointer composite literals, new, slice
// literals, string concatenation, unsized append growth, and interface
// boxing.
package bad

import "kalis/internal/packet"

// track is per-packet scratch state.
type track struct {
	seen int
}

// Detector mimics a detection module with an allocation-heavy handler.
type Detector struct {
	counts map[string]int
}

// NewDetector builds the count map off the packet path.
func NewDetector() *Detector {
	return &Detector{counts: make(map[string]int)}
}

// HandlePacket is a packet-path root by name.
func (d *Detector) HandlePacket(c *packet.Captured) {
	t := &track{seen: 1} // want hotalloc
	t.seen++
	u := new(track) // want hotalloc
	t.seen += u.seen
	ids := []string{string(c.Src)}             // want hotalloc
	key := string(c.Src) + "|" + string(c.Dst) // want hotalloc
	d.counts[key] += len(ids)
	var all []int
	all = append(all, len(key)) // want hotalloc
	d.counts["len"] = len(all)
	record(c.RSSI) // want hotalloc
}

// record boxes its argument into the empty interface.
func record(v interface{}) {
	_ = v
}
