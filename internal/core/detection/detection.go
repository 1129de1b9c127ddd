// Package detection implements Kalis' detection modules, one per attack
// of the Fig. 3 taxonomy: ICMP flood, Smurf, SYN flood, selective
// forwarding, blackhole, replication (static and mobile variants),
// sybil, sinkhole, wormhole (collective-knowledge driven), and data
// alteration.
//
// Each module declares, through Required, the knowledge predicate under
// which its services are needed — the heart of the knowledge-driven
// approach: "a selective forwarding attack cannot be carried out in a
// single-hop network" (§III). Several modules also adapt their
// *technique* to the available knowledge: with knowledge-driven
// operation disabled (the traditional-IDS baseline) they fall back to
// naive symptom-only techniques, reproducing the ambiguities the paper
// observes (e.g. flood vs Smurf).
package detection

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// base carries the state shared by every detection module: its registry
// name, the context of the current activation, the handles acquired
// from the flow layer for it, and the first of them — gate, the
// module's alert cooldown ledger. A detector owns neither evidence nor
// repeat policy: "may this verdict be raised again?" is always
// gate.Pass, on a ledger the module's instances on every shard share.
type base struct {
	name string
	ctx  *module.Context
	gate *flow.Cooldown
	held []interface{ Release() }
}

// Name implements module.Module.
func (b *base) Name() string { return b.name }

func (b *base) Kind() module.Kind { return module.KindDetection }

// Activate implements module.Module.
func (b *base) Activate(ctx *module.Context) {
	b.ctx = ctx
	b.gate = hold(b, ctx.Flows.Cooldown(b.name))
}

// hold keeps a handle acquired from the flow layer until Deactivate
// releases it.
func hold[H interface{ Release() }](b *base, h H) H {
	b.held = append(b.held, h)
	return h
}

// Deactivate implements module.Module: it returns every handle the
// activation acquired.
func (b *base) Deactivate() {
	for _, h := range b.held {
		h.Release()
	}
	b.held, b.gate, b.ctx = nil, nil, nil
}

// knowledgeDriven reports whether the module may rely on the Knowledge
// Base for technique selection. The traditional-IDS baseline runs
// "without Knowledge Base" (§VI-B), so modules fall back to their
// naive techniques.
func (b *base) knowledgeDriven() bool {
	return b.ctx != nil && b.ctx.KnowledgeDriven
}

// hasMedium reports whether the given medium has been observed.
func hasMedium(kb *knowledge.Base, m packet.Medium) bool {
	v, ok := kb.Value(knowledge.LabelMediums + "." + m.String())
	return ok && v == "true"
}

// boolIs reports whether a boolean knowgget is present with the given
// value.
func boolIs(kb *knowledge.Base, label string, want bool) bool {
	v, ok := kb.Bool(label)
	return ok && v == want
}

// boolIsOrUnknown reports whether a boolean knowgget is absent or has
// the given value.
func boolIsOrUnknown(kb *knowledge.Base, label string, want bool) bool {
	v, ok := kb.Bool(label)
	return !ok || v == want
}

// fingerprintMatch returns the monitored entities whose smoothed
// signal strength (SignalStrength knowggets from the Mobility Awareness
// module) lies within tol dB of rssi — the paper's "approximate
// disambiguation through a comparison of the signal strength with
// previous overheard communications" (§VI-B1). Excluded entities are
// skipped. Results are sorted by fingerprint distance.
//
//lint:coldpath fingerprint disambiguation runs only during gate-passed alert formation, cooldown-bounded
func fingerprintMatch(kb *knowledge.Base, rssi, tol float64, exclude map[packet.NodeID]bool) []packet.NodeID {
	type cand struct {
		id   packet.NodeID
		dist float64
	}
	var cands []cand
	for _, k := range kb.QueryLocal() {
		if k.Label != knowledge.LabelSignalStrength || k.Entity == "" {
			continue
		}
		id := packet.NodeID(k.Entity)
		if exclude[id] {
			continue
		}
		v, err := strconv.ParseFloat(k.Value, 64)
		if err != nil {
			continue
		}
		if d := math.Abs(v - rssi); d <= tol {
			cands = append(cands, cand{id: id, dist: d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	out := make([]packet.NodeID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// rssiStdDev returns the sample standard deviation of RSSI samples. A
// single physical transmitter produces a spread on the order of the
// shadowing deviation (1–2 dB); several transmitters at distinct
// distances produce a much larger one — a merge-resistant test for the
// "one physical source" property of a spoofed flood.
func rssiStdDev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	var mean float64
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

// clusterRSSI clusters sorted 1-D RSSI samples with the given gap
// tolerance and returns the number of clusters — the number of distinct
// physical transmitters behind a set of observations.
func clusterRSSI(samples []float64, gap float64) int {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	clusters := 1
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] > gap {
			clusters++
		}
	}
	return clusters
}

// commGraph reconstructs the undirected communication graph from the
// Edge knowggets published by the Topology Discovery module.
func commGraph(kb *knowledge.Base) map[packet.NodeID][]packet.NodeID {
	adj := make(map[packet.NodeID][]packet.NodeID)
	add := func(a, b packet.NodeID) {
		adj[a] = append(adj[a], b)
	}
	for _, k := range kb.QueryLocal() {
		if k.Label != "Edge" || k.Entity == "" {
			continue
		}
		parts := strings.SplitN(k.Entity, ">", 2)
		if len(parts) != 2 {
			continue
		}
		from, to := packet.NodeID(parts[0]), packet.NodeID(parts[1])
		add(from, to)
		add(to, from)
	}
	return adj
}

// hopDistance returns BFS hop distances from the given node over the
// reconstructed communication graph.
func hopDistance(kb *knowledge.Base, from packet.NodeID) map[packet.NodeID]int {
	adj := commGraph(kb)
	dist := map[packet.NodeID]int{from: 0}
	queue := []packet.NodeID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// atDistance returns the sorted nodes at exactly d hops from from.
func atDistance(kb *knowledge.Base, from packet.NodeID, d int) []packet.NodeID {
	var out []packet.NodeID
	for id, dd := range hopDistance(kb, from) {
		if dd == d {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
