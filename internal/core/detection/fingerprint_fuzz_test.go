package detection

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"testing"

	"kalis/internal/core/knowledge"
	"kalis/internal/packet"
)

// fingerprintMatchRef is the reference model for FuzzFingerprintMatch:
// fingerprintMatch as it was before the Knowledge Base had a
// label-scoped read. It copies every local knowgget, sorted by key, and
// keeps the SignalStrength ones.
func fingerprintMatchRef(kb *knowledge.Base, rssi, tol float64, exclude map[packet.NodeID]bool) []packet.NodeID {
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

// fpEntities is the entity pool of the fuzzed Knowledge Bases; the last
// one needs escaping in a storage key.
var fpEntities = []string{"192.168.1.1", "192.168.1.2", "192.168.1.3", "192.168.1.4",
	"192.168.1.5", "192.168.1.6", "192.168.1.66", "a$b@c%d"}

// fpTols are the tolerances a fuzz input picks from.
var fpTols = []float64{0, 0.25, 1, 3, 5, math.NaN(), math.Inf(1), -1}

// fpOddValues are the values a fuzz input picks when its value byte is
// 200 or more: unparseable, NaN, infinite, out of range, or a number
// that parses but is spelt differently from the grid's.
var fpOddValues = []string{"NaN", "junk", "+Inf", "-Inf", "", "-58.0", " -58", "1e400", "-58.", "0x1p-2"}

// fpValue renders a value byte: below 200 a point of the quarter-dB grid
// from -80 dB up (the grid the tested RSSI lies on, so distances tie),
// otherwise an odd value.
func fpValue(b byte) string {
	if b >= 200 {
		return fpOddValues[int(b-200)%len(fpOddValues)]
	}
	return strconv.FormatFloat(-80+float64(b)/4, 'f', -1, 64)
}

// Fuzz opcodes, two bytes each. Byte 0: bits 0–2 the operation, bits
// 3–5 the entity; byte 1 the value (fpValue).
const (
	fpPutLocal      = iota // PutEntity SignalStrength
	fpPutCollective        // PutCollective SignalStrength
	fpGossip               // a peer's SignalStrength (creator K2 or K3 by bit 6)
	fpDeleteLocal          // Delete the local SignalStrength of the entity
	fpRestore              // Restore a local SignalStrength knowgget
	fpPutOther             // a local knowgget of another label
	fpPutNoEntity          // a local SignalStrength without an entity
	fpDeletePeer           // Delete the peer's SignalStrength of the entity
)

// FuzzFingerprintMatch holds fingerprintMatch, which reads the local
// SignalStrength knowggets through the label-scoped AppendLocal, to the
// reference model that reads them from QueryLocal. The input is three
// configuration bytes — the RSSI on the quarter-dB grid, the tolerance
// (fpTols) and a bit mask of excluded entities — followed by Knowledge
// Base mutations. After every mutation both must name the same entities
// in the same order; one scratch serves every call.
func FuzzFingerprintMatch(f *testing.F) {
	f.Add([]byte{88, 3, 0x00,
		fpPutLocal | 6<<3, 87, // 192.168.1.66 at -58.25
		fpPutLocal | 0<<3, 92, // 192.168.1.1 at -57: ties with ...
		fpPutLocal | 1<<3, 84, // ... 192.168.1.2 at -59
		fpGossip | 2<<3, 88, // a peer's fingerprint on the RSSI itself
		fpPutOther | 3<<3, 88,
		fpPutNoEntity, 88,
	})
	f.Add([]byte{88, 4, 0x41,
		fpPutCollective | 0<<3, 88,
		fpPutLocal | 6<<3, 200, // NaN
		fpPutLocal | 7<<3, 89,
		fpRestore | 5<<3, 90,
		fpDeleteLocal | 7<<3, 0,
		fpPutLocal | 4<<3, 201, // unparseable
		fpGossip | 4<<3 | 1<<6, 88,
		fpDeletePeer | 4<<3, 0,
	})
	f.Add([]byte{0, 6, 0xff, fpPutLocal, 0, fpPutLocal | 1<<3, 207})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		rssi := -80 + float64(in[0])/4
		tol := fpTols[int(in[1])%len(fpTols)]
		exclude := make(map[packet.NodeID]bool)
		for i, e := range fpEntities {
			if in[2]&(1<<i) != 0 {
				exclude[packet.NodeID(e)] = true
			}
		}
		kb := knowledge.NewBase("K1")
		var scratch fingerprints
		version := uint64(0)
		for ops := in[3:]; len(ops) >= 2; ops = ops[2:] {
			entity := fpEntities[ops[0]>>3&7]
			value := fpValue(ops[1])
			peer := "K2"
			if ops[0]&(1<<6) != 0 {
				peer = "K3"
			}
			switch ops[0] & 7 {
			case fpPutLocal:
				kb.PutEntity(knowledge.LabelSignalStrength, entity, value)
			case fpPutCollective:
				kb.PutCollective(knowledge.LabelSignalStrength, entity, value)
			case fpGossip:
				version++
				kb.AcceptGossip(peer, knowledge.Knowgget{Label: knowledge.LabelSignalStrength, Value: value,
					Creator: peer, Entity: entity, Version: version})
			case fpDeleteLocal:
				kb.Delete(knowledge.Knowgget{Creator: "K1", Label: knowledge.LabelSignalStrength, Entity: entity}.Key())
			case fpRestore:
				kb.Restore([]knowledge.Knowgget{{Label: knowledge.LabelSignalStrength, Value: value, Creator: "K1", Entity: entity}}, nil)
			case fpPutOther:
				kb.PutEntity(knowledge.LabelSignalStrength+".child", entity, value)
				kb.PutEntity(knowledge.LabelTrafficFrequency, entity, value)
			case fpPutNoEntity:
				kb.Put(knowledge.LabelSignalStrength, value)
			case fpDeletePeer:
				kb.Delete(knowledge.Knowgget{Creator: peer, Label: knowledge.LabelSignalStrength, Entity: entity}.Key())
			}
			want := fingerprintMatchRef(kb, rssi, tol, exclude)
			got := fingerprintMatch(kb, rssi, tol, exclude, &scratch)
			if !slices.Equal(got, want) {
				t.Fatalf("rssi %v tol %v exclude %v after op %#x %q on %s: got %v, want %v",
					rssi, tol, exclude, ops[0], value, entity, got, want)
			}
		}
	})
}
