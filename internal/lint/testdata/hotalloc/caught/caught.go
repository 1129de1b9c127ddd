// Package caught is the TCP handshake tracker before commit e71ebc5
// ("Add whole-program call graph to kalislint with lock-order,
// hot-alloc, and taint rules"; internal/flow/endpoint.go): every SYN
// and pure ACK built a "src|dst" string to key the pending map. That
// commit keyed it by a struct (hsKey), and the watchdog's map likewise.
package caught

import "kalis/internal/packet"

// TCPHandshakes keys its pending handshakes by string.
type TCPHandshakes struct {
	pending map[string]bool
}

// Observe folds one capture into the handshake state.
func (h *TCPHandshakes) Observe(c *packet.Captured) {
	switch c.Kind {
	case packet.KindTCPSYN:
		h.pending[string(c.Src)+"|"+string(c.Dst)] = true // want hotalloc
	case packet.KindTCPACK:
		delete(h.pending, string(c.Src)+"|"+string(c.Dst)) // want hotalloc
	}
}

// SYNFlood feeds the tracker from its packet handler.
type SYNFlood struct{ hs *TCPHandshakes }

// HandlePacket is a packet-path root by name.
func (d *SYNFlood) HandlePacket(c *packet.Captured) { d.hs.Observe(c) }
