// Package detection implements Kalis' detection modules, one per attack
// of the Fig. 3 taxonomy: ICMP flood, Smurf, SYN flood, selective
// forwarding, blackhole, replication (static and mobile variants),
// sybil, sinkhole, wormhole (collective-knowledge driven), and data
// alteration.
//
// Each module declares its attack (and replication its technique), and
// Fig. 3 decides when its services are needed (base.Required reads
// taxonomy.Due through featureTable) — the heart of the knowledge-driven
// approach: "a selective forwarding attack cannot be carried out in a
// single-hop network" (§III). TrafficAnomaly and HealthCorr are not
// Fig. 3 decisions and keep predicates of their own. Several modules
// also adapt their *technique* to the available knowledge: with
// knowledge-driven operation disabled (the traditional-IDS baseline)
// they fall back to naive symptom-only techniques, reproducing the
// ambiguities the paper observes (e.g. flood vs Smurf).
package detection

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/taxonomy"
)

// base carries the state shared by every detection module: its registry
// name, the Fig. 3 attack it detects and the feature its technique is
// built for (see taxonomy.Due), the context of the current activation,
// the handles acquired from the flow layer for it, and the first of
// them — gate, the module's alert cooldown ledger. A detector owns
// neither evidence nor repeat policy: "may this verdict be raised
// again?" is always gate.Pass, on the ledger in its shard's flow table.
type base struct {
	name      string
	attack    string
	technique taxonomy.Feature
	ctx       *module.Context
	gate      *flow.Cooldown
	held      []interface{ Release() }
}

// featureTable maps each Fig. 3 column to the Knowledge Base literals
// that make it hold: one boolean knowgget key reading value, whose
// changes arrive under label. Sensing answers Multihop and Mobility
// either way, Encrypted only once seen.
var featureTable = []literal{
	{taxonomy.FeatureConstrained, knowledge.LabelMediums, knowledge.LabelMediums + "." + packet.MediumIEEE802154.String(), true},
	{taxonomy.FeatureIPNetwork, knowledge.LabelMediums, knowledge.LabelMediums + "." + packet.MediumWiFi.String(), true},
	{taxonomy.FeatureIPNetwork, knowledge.LabelMediums, knowledge.LabelMediums + "." + packet.MediumWired.String(), true},
	{taxonomy.FeatureMultihop, knowledge.LabelMultihop, knowledge.LabelMultihop, true},
	{taxonomy.FeatureSinglehop, knowledge.LabelMultihop, knowledge.LabelMultihop, false},
	{taxonomy.FeatureMobile, knowledge.LabelMobility, knowledge.LabelMobility, true},
	{taxonomy.FeatureStatic, knowledge.LabelMobility, knowledge.LabelMobility, false},
	{taxonomy.FeatureEncrypted, knowledge.LabelEncrypted, knowledge.LabelEncrypted, true},
}

type literal struct {
	feature    taxonomy.Feature
	label, key string
	value      bool
}

// featureLabels returns, once each and in featureTable order, the
// labels of the columns keep accepts.
func featureLabels(keep func(taxonomy.Feature) bool) []string {
	out := make([]string, 0, len(featureTable))
	for _, l := range featureTable {
		if keep(l.feature) && !slices.Contains(out, l.label) {
			out = append(out, l.label)
		}
	}
	return out
}

// FeatureLabels lists the labels of the knowledge Fig. 3 reads.
func FeatureLabels() []string { return featureLabels(func(taxonomy.Feature) bool { return true }) }

// Required implements module.Module: Fig. 3 decides whether the
// module's attack is due on the network the Knowledge Base describes.
func (b *base) Required(kb *knowledge.Base) bool {
	return taxonomy.Due(b.attack, b.technique, func(f taxonomy.Feature) bool {
		return slices.ContainsFunc(featureTable, func(l literal) bool { return l.feature == f && boolIs(kb, l.key, l.value) })
	})
}

// WatchLabels implements module.Module: the labels of the columns whose
// holding can change Required.
func (b *base) WatchLabels() []string {
	return featureLabels(func(f taxonomy.Feature) bool { return taxonomy.Reads(b.attack, b.technique, f) })
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

// boolIs reports whether a boolean knowgget is present with the given
// value.
func boolIs(kb *knowledge.Base, label string, want bool) bool {
	v, ok := kb.Bool(label)
	return ok && v == want
}

// fingerprints is fingerprintMatch's scratch, kept by its caller and
// reused from one alert to the next: the SignalStrength read and the
// candidates within tolerance.
type fingerprints struct {
	kgs   []knowledge.Knowgget
	cands []fingerprint
}

// fingerprint is one candidate of a fingerprint match.
type fingerprint struct {
	id   packet.NodeID
	dist float64
}

// fingerprintMatch returns the monitored entities whose smoothed
// signal strength (SignalStrength knowggets from the Mobility Awareness
// module) lies within tol dB of rssi — the paper's "approximate
// disambiguation through a comparison of the signal strength with
// previous overheard communications" (§VI-B1). Excluded entities are
// skipped. Results are sorted by fingerprint distance, then identity.
// It reads only the local SignalStrength knowggets and allocates only
// the slice it returns (nil when nothing matches).
func fingerprintMatch(kb *knowledge.Base, rssi, tol float64, exclude map[packet.NodeID]bool, s *fingerprints) []packet.NodeID {
	s.kgs = kb.AppendLocal(s.kgs[:0], knowledge.LabelSignalStrength)
	s.cands = s.cands[:0]
	for _, k := range s.kgs {
		if k.Entity == "" {
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
			s.cands = append(s.cands, fingerprint{id: id, dist: d})
		}
	}
	if len(s.cands) == 0 {
		return nil
	}
	slices.SortFunc(s.cands, func(a, b fingerprint) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	out := make([]packet.NodeID, len(s.cands))
	for i, c := range s.cands {
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

// clusterRSSI clusters 1-D RSSI samples with the given gap tolerance
// and returns the number of clusters — the number of distinct physical
// transmitters behind a set of observations. It sorts samples in place.
func clusterRSSI(samples []float64, gap float64) int {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	clusters := 1
	for i := 1; i < len(samples); i++ {
		if samples[i]-samples[i-1] > gap {
			clusters++
		}
	}
	return clusters
}
