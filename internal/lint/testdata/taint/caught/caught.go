// Package caught is the ICMP flood alert before commit e71ebc5 ("Add
// whole-program call graph to kalislint with lock-order, hot-alloc, and
// taint rules"; internal/core/detection/flood.go): the victim identity,
// claimed by whatever frame arrived, went into Details raw. That commit
// wrapped it in packet.CleanID here and at six more alert and
// knowledge-base sites of the detection modules.
package caught

import (
	"fmt"
	"time"

	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// ICMPFlood keeps the pre-fix alert construction.
type ICMPFlood struct {
	window  time.Duration
	replies map[packet.NodeID]int
	emit    func(module.Alert)
}

// HandlePacket raises the flood alert once the victim's window is full.
func (d *ICMPFlood) HandlePacket(c *packet.Captured) {
	n := d.replies[c.Dst]
	if c.Kind != packet.KindICMPEchoReply || n < 10 {
		return
	}
	d.emit(module.Alert{
		Module:  "ICMPFloodModule",
		Victim:  c.Dst,
		Details: fmt.Sprintf("%d echo replies to %s within %s", n, c.Dst, d.window), // want taint
	})
}
