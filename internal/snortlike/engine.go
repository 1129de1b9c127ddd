package snortlike

import (
	"bytes"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/tcp"
	"kalis/internal/proto/udp"
)

// Alert is one rule firing.
type Alert struct {
	Time     time.Time
	SID      int
	Msg      string
	Class    string
	Src, Dst packet.NodeID
}

// Engine evaluates a ruleset against captured traffic. Every IP packet
// is checked against every rule — the linear scan whose cost on small
// IoT networks the paper calls out ("running through a large rule list
// ... heavy overhead", §VII).
type Engine struct {
	rules  []*Rule
	alerts []Alert
	// thresholds maps (sid, trackKey) → event times in window.
	thresholds map[int]map[packet.NodeID][]time.Time

	// Packets and Evaluations count work: packets inspected and rule
	// evaluations performed.
	Packets     uint64
	Evaluations uint64
	// Invisible counts frames skipped because their medium carries no
	// IP traffic Snort can parse (802.15.4, Bluetooth).
	Invisible uint64
}

// NewEngine creates an engine over the given rules.
func NewEngine(rules []*Rule) *Engine {
	return &Engine{
		rules:      rules,
		thresholds: make(map[int]map[packet.NodeID][]time.Time),
	}
}

// RuleCount returns the number of loaded rules.
func (e *Engine) RuleCount() int { return len(e.rules) }

// Alerts returns all alerts so far.
func (e *Engine) Alerts() []Alert {
	out := make([]Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

// HandleCapture inspects one captured frame.
func (e *Engine) HandleCapture(c *packet.Captured) {
	if c.Medium != packet.MediumWiFi && c.Medium != packet.MediumWired {
		e.Invisible++
		return
	}
	if c.Layer("ipv4") == nil {
		return // management frames etc.
	}
	e.Packets++
	for _, r := range e.rules {
		e.Evaluations++
		if r.Action != ActionAlert {
			continue
		}
		if !e.match(r, c) {
			continue
		}
		if r.Threshold != nil && !e.thresholdPass(r, c) {
			continue
		}
		e.alerts = append(e.alerts, Alert{
			Time:  c.Time,
			SID:   r.SID,
			Msg:   r.Msg,
			Class: r.Class,
			Src:   c.Src,
			Dst:   c.Dst,
		})
	}
}

func (e *Engine) match(r *Rule, c *packet.Captured) bool {
	var srcPort, dstPort = -1, -1
	var payload []byte
	switch r.Proto {
	case ProtoICMP:
		m, ok := c.Layer("icmp").(*icmp.Message)
		if !ok {
			return false
		}
		if r.ITypeSet && int(m.Type) != r.IType {
			return false
		}
		if r.ICodeSet && int(m.Code) != r.ICode {
			return false
		}
		payload = m.Payload
	case ProtoTCP:
		seg, ok := c.Layer("tcp").(*tcp.Segment)
		if !ok {
			return false
		}
		if r.Flags != "" && tcp.FlagString(seg.Flags) != r.Flags {
			return false
		}
		srcPort, dstPort = int(seg.SrcPort), int(seg.DstPort)
		payload = seg.Payload
	case ProtoUDP:
		d, ok := c.Layer("udp").(*udp.Datagram)
		if !ok {
			return false
		}
		srcPort, dstPort = int(d.SrcPort), int(d.DstPort)
		payload = d.Payload
	case ProtoIP:
		payload = c.Payload
	}
	if r.SrcPort >= 0 && r.SrcPort != srcPort {
		return false
	}
	if r.DstPort >= 0 && r.DstPort != dstPort {
		return false
	}
	switch r.DsizeOp {
	case "<":
		if len(payload) >= r.Dsize {
			return false
		}
	case ">":
		if len(payload) <= r.Dsize {
			return false
		}
	case "=":
		if len(payload) != r.Dsize {
			return false
		}
	}
	for _, content := range r.Contents {
		if !bytes.Contains(payload, []byte(content)) {
			return false
		}
	}
	return true
}

// thresholdPass implements threshold:type both/threshold/limit
// semantics over the packet-timestamp clock.
func (e *Engine) thresholdPass(r *Rule, c *packet.Captured) bool {
	key := c.Dst
	if r.Threshold.Track == TrackBySrc {
		key = c.Src
	}
	byKey := e.thresholds[r.SID]
	if byKey == nil {
		byKey = make(map[packet.NodeID][]time.Time)
		e.thresholds[r.SID] = byKey
	}
	window := time.Duration(r.Threshold.Seconds) * time.Second
	evs := append(byKey[key], c.Time)
	cut := 0
	for cut < len(evs) && c.Time.Sub(evs[cut]) > window {
		cut++
	}
	// Move the in-window events to the front rather than slicing the
	// expired ones off it, so the queue keeps its capacity and the next
	// append does not reallocate.
	evs = evs[:copy(evs, evs[cut:])]
	byKey[key] = evs

	switch r.Threshold.Type {
	case "limit":
		// Alert on the first Count events per window.
		return len(evs) <= r.Threshold.Count
	case "threshold":
		// Alert on every Count-th event.
		return len(evs)%r.Threshold.Count == 0
	default: // "both": once per window after Count events
		if len(evs) == r.Threshold.Count {
			return true
		}
		return false
	}
}
