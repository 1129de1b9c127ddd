package flow

import (
	"fmt"
	"testing"
	"time"

	"kalis/internal/packet"
)

// BenchmarkFlowTable measures the steady-state per-packet cost of a
// flow-table update (key lookup, feature updates, LRU maintenance)
// across table populations up to MaxFlows. The cost must stay flat as
// the table grows — the update path is O(1) in the number of live
// flows. Each flow's clock steps 1 µs a packet, so no op crosses a
// timeout and none evicts.
func BenchmarkFlowTable(b *testing.B) {
	for _, size := range []int{16, 1024, MaxFlows} {
		b.Run(fmt.Sprintf("flows=%d", size), func(b *testing.B) {
			tbl := NewTable(Config{})
			caps := make([]*packet.Captured, size)
			for i := range caps {
				caps[i] = (&packet.Captured{
					Time:   t0,
					Medium: packet.MediumIEEE802154,
					Kind:   packet.KindCTPData,
					Src:    packet.NodeID(fmt.Sprintf("n%d", i)),
					Dst:    "sink",
					RSSI:   -60,
				}).Identify()
			}
			// Populate: every key exists before the timer starts.
			for _, c := range caps {
				tbl.Update(c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := caps[i%size]
				c.Time = c.Time.Add(time.Microsecond)
				tbl.Update(c)
			}
		})
	}
}
