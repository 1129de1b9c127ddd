// Package caught is the event bus before commit 1b4a5b2 ("Add kalislint
// static-analysis suite and enforce hot-path invariants";
// internal/core/event/bus.go): the node published every capture on the
// bus, and every Publish resolved its topic's counter child with
// CounterVec.With. That commit pre-resolved the children per topic at
// wiring time (topicMetrics).
package caught

import (
	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// Bus resolves its publish counter per call.
type Bus struct {
	subs      map[string][]func(interface{})
	publishes *telemetry.CounterVec
}

// Publish delivers payload to the topic's subscribers.
func (b *Bus) Publish(topic string, payload interface{}) {
	b.publishes.With(topic).Inc() // want hotpath
	for _, fn := range b.subs[topic] {
		fn(payload)
	}
}

// Node hands every capture to the bus.
type Node struct{ bus *Bus }

// HandleCapture is a packet-path root by name.
func (n *Node) HandleCapture(c *packet.Captured) { n.bus.Publish("packet", c) }
