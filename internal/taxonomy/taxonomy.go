// Package taxonomy encodes the paper's two IoT threat taxonomies:
// the attack-pattern taxonomy by source/target (Table I) and the
// feature/attack relationship taxonomy (Fig. 3) that grounds the
// knowledge-driven model — which attacks are possible, impossible, or
// detection-technique-dependent under each network/device feature.
package taxonomy

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"kalis/internal/attack"
)

// Entity is a row/column of the by-target taxonomy.
type Entity int

// Entities of the IoT ecosystem (§III-B1).
const (
	EntityInternet Entity = iota + 1
	EntityInternetService
	EntityHub
	EntitySub
	EntityRouter
)

// String returns the entity name.
func (e Entity) String() string {
	switch e {
	case EntityInternet:
		return "Internet"
	case EntityInternetService:
		return "Internet Service"
	case EntityHub:
		return "Hub"
	case EntitySub:
		return "Sub"
	case EntityRouter:
		return "Router"
	default:
		return fmt.Sprintf("entity(%d)", int(e))
	}
}

// PatternClass is the paper's nomenclature for attack patterns.
type PatternClass string

// Attack-pattern classes (Table I). "Denial of Thing" (DoT) is the
// paper's term for attacks aimed at disrupting the functionality of a
// thing.
const (
	DenialOfService PatternClass = "Denial of Service"
	RemoteDoT       PatternClass = "Remote Denial of Thing"
	ControlDoT      PatternClass = "Control Denial of Thing"
	DenialOfThing   PatternClass = "Denial of Thing"
	DenialOfRouting PatternClass = "Denial of Routing"
	PatternNone     PatternClass = "-"
)

// ByTarget returns the Table I matrix: ByTarget()[source][target].
// Absent pairs are impossible (e.g. a sub lacks the communication
// hardware to attack an Internet service directly).
func ByTarget() map[Entity]map[Entity]PatternClass {
	return map[Entity]map[Entity]PatternClass{
		EntityInternet: {
			EntityInternetService: DenialOfService,
			EntityHub:             RemoteDoT,
			EntitySub:             PatternNone,
			EntityRouter:          PatternNone,
		},
		EntityHub: {
			EntityInternetService: DenialOfService,
			EntityHub:             ControlDoT,
			EntitySub:             DenialOfThing,
			EntityRouter:          DenialOfRouting,
		},
		EntitySub: {
			EntityInternetService: PatternNone,
			EntityHub:             PatternNone,
			EntitySub:             DenialOfThing,
			EntityRouter:          PatternNone,
		},
		EntityRouter: {
			EntityInternetService: PatternNone,
			EntityHub:             ControlDoT,
			EntitySub:             PatternNone,
			EntityRouter:          DenialOfRouting,
		},
	}
}

// Feature is a network/device feature of the Fig. 3 taxonomy.
type Feature string

// Features considered by the knowledge-driven model.
const (
	FeatureMultihop    Feature = "multi-hop topology"
	FeatureSinglehop   Feature = "single-hop topology"
	FeatureMobile      Feature = "mobile network"
	FeatureStatic      Feature = "static network"
	FeatureConstrained Feature = "constrained devices (802.15.4)"
	FeatureIPNetwork   Feature = "IP network (WiFi/wired)"
	FeatureEncrypted   Feature = "cryptographic protection"
)

// Relation classifies a (feature, attack) pair.
type Relation int

// Relations of the Fig. 3 matrix: dots (possible), crosses
// (impossible) and circles (the detection technique depends on the
// feature).
const (
	Possible Relation = iota + 1
	Impossible
	TechniqueDepends
)

// Symbol returns the figure's marker for the relation.
func (r Relation) Symbol() string {
	switch r {
	case Possible:
		return "●"
	case Impossible:
		return "✗"
	case TechniqueDepends:
		return "◯"
	default:
		return "?"
	}
}

// Matrix is the feature × attack relationship table.
type Matrix map[Feature]map[string]Relation

// fig3 is Fig. 3 for the attacks Kalis implements, built once: Due and
// the printers read it.
var fig3 = Matrix{
	FeatureSinglehop: {
		attack.ICMPFlood:           Possible,
		attack.Smurf:               Impossible, // §III-A1
		attack.SYNFlood:            Possible,
		attack.SelectiveForwarding: Impossible, // §III: needs relays
		attack.Blackhole:           Impossible,
		attack.Sinkhole:            Impossible,
		attack.Wormhole:            Impossible,
		attack.Replication:         Possible,
		attack.Sybil:               TechniqueDepends,
		attack.DataAlteration:      Possible,
		// Extension beyond Fig. 3: crashing the same detector on
		// many nodes works over any topology; detecting it needs
		// the collective layer, not a topology feature.
		attack.CoordinatedQuarantine: Possible,
	},
	FeatureMultihop: {
		attack.ICMPFlood:             TechniqueDepends, // single-source check
		attack.Smurf:                 Possible,
		attack.SYNFlood:              Possible,
		attack.SelectiveForwarding:   Possible,
		attack.Blackhole:             Possible,
		attack.Sinkhole:              Possible,
		attack.Wormhole:              Possible,
		attack.Replication:           Possible,
		attack.Sybil:                 TechniqueDepends,
		attack.DataAlteration:        Possible,
		attack.CoordinatedQuarantine: Possible,
	},
	FeatureStatic: {
		attack.Replication: TechniqueDepends, // RSSI-stability technique
		attack.Sybil:       Possible,
	},
	FeatureMobile: {
		attack.Replication: TechniqueDepends, // sequence/velocity technique
		attack.Sybil:       Possible,
	},
	FeatureConstrained: {
		attack.SelectiveForwarding: Possible,
		attack.Blackhole:           Possible,
		attack.Sinkhole:            Possible,
		attack.Wormhole:            Possible,
		attack.Replication:         Possible,
		attack.Sybil:               Possible,
		attack.DataAlteration:      Possible,
		attack.ICMPFlood:           Impossible, // no IP stack to flood
		attack.SYNFlood:            Impossible,
		attack.Smurf:               Impossible,
	},
	FeatureIPNetwork: {
		attack.ICMPFlood: Possible,
		attack.Smurf:     Possible,
		attack.SYNFlood:  Possible,
	},
	FeatureEncrypted: {
		attack.DataAlteration: Impossible, // prevention technique, §III-B2
	},
}

// ByFeature returns the Fig. 3 relationships for the attacks Kalis
// implements. The matrix is shared and must not be modified. Due is its
// executable form: a detection module of internal/core/detection that
// declares an attack runs exactly when Due says the attack is due.
func ByFeature() Matrix { return fig3 }

// The structure of Fig. 3's columns. The media columns say which
// networks an attack can run on at all. Single- and multi-hop topology
// answer one question, as do static and mobile network: partner maps
// each column of such a pair to the other. Cryptographic protection
// stands alone.
var (
	media   = []Feature{FeatureConstrained, FeatureIPNetwork}
	others  = []Feature{FeatureSinglehop, FeatureMultihop, FeatureStatic, FeatureMobile, FeatureEncrypted}
	partner = map[Feature]Feature{
		FeatureSinglehop: FeatureMultihop, FeatureMultihop: FeatureSinglehop,
		FeatureStatic: FeatureMobile, FeatureMobile: FeatureStatic,
	}
)

// Due reports whether attack a is due — whether its detector must run —
// on a network of which holds reports the features known to hold
// (§III-B2). technique is the column of the ◯ cell the detector's
// technique is built for, or "" for an attack with one technique. Fig. 3
// decides:
//
//   - media select: some medium column with a ● for a must hold. A
//     medium's ✗ vetoes nothing another medium selects — a WiFi flood
//     detector stays on in a home that also has motes;
//   - a ✗ under a column of a pair waits for the answer: the pair's
//     other column must hold;
//   - a ✗ under a lone column vetoes once that column holds;
//   - a declared technique's column must hold. The other ◯ cells are
//     notes on a single technique and decide nothing.
func Due(a string, technique Feature, holds func(Feature) bool) bool {
	selected := false
	for _, f := range media {
		selected = selected || fig3[f][a] == Possible && holds(f)
	}
	for _, f := range others {
		if p, paired := partner[f]; selected && fig3[f][a] == Impossible {
			selected = paired && holds(p) || !paired && !holds(f)
		}
	}
	return selected && (technique == "" || holds(technique))
}

// Reads reports whether Due(a, technique, ·) asks holds about column f
// and can change with its answer.
func Reads(a string, technique, f Feature) bool {
	switch p, paired := partner[f]; {
	case f == technique:
		return true
	case slices.Contains(media, f):
		return fig3[f][a] == Possible
	case paired:
		return fig3[p][a] == Impossible
	default:
		return fig3[f][a] == Impossible
	}
}

// WriteTableI renders Table I.
func WriteTableI(w io.Writer) {
	targets := []Entity{EntityInternetService, EntityHub, EntitySub, EntityRouter}
	sources := []Entity{EntityInternet, EntityHub, EntitySub, EntityRouter}
	m := ByTarget()
	fmt.Fprintf(w, "%-18s", "SOURCE \\ TARGET")
	for _, t := range targets {
		fmt.Fprintf(w, "| %-22s", t)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 18+4*25))
	for _, s := range sources {
		fmt.Fprintf(w, "%-18s", s)
		for _, t := range targets {
			cell := m[s][t]
			if cell == "" {
				cell = PatternNone
			}
			fmt.Fprintf(w, "| %-22s", cell)
		}
		fmt.Fprintln(w)
	}
}

// WriteFigure3 renders the feature/attack matrix.
func WriteFigure3(w io.Writer) {
	m := ByFeature()
	features := make([]Feature, 0, len(m))
	for f := range m {
		features = append(features, f)
	}
	sort.Slice(features, func(i, j int) bool { return features[i] < features[j] })

	fmt.Fprintf(w, "%-24s", "ATTACK \\ FEATURE")
	for _, f := range features {
		fmt.Fprintf(w, "| %-30s", f)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 24+len(features)*33))
	for _, a := range attack.All {
		fmt.Fprintf(w, "%-24s", a)
		for _, f := range features {
			sym := " "
			if rel, ok := m[f][a]; ok {
				sym = rel.Symbol()
			}
			fmt.Fprintf(w, "| %-30s", sym)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "● possible   ✗ impossible   ◯ detection technique depends on the feature")
}
