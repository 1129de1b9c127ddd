package detection

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"kalis/internal/attack"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// HealthCorrName is the registry name of the cross-node module-health
// correlation module.
const HealthCorrName = "HealthCorrModule"

// HealthCorr correlates ModuleHealth knowggets across the collective:
// every Kalis node publishes its supervisor transitions as collective
// ModuleHealth.<module> knowggets, which the anti-entropy gossip layer
// spreads through the fleet. One node quarantining a module is a local
// software fault; the *same* module quarantining on many nodes within a
// short window is a coordinated symptom — crafted traffic crashing a
// specific detector fleet-wide to open a detection hole. This module
// raises a coordinated-quarantine alert naming the reporting nodes.
type HealthCorr struct {
	base
	// minPeers is how many distinct nodes (local node included) must
	// report the same module quarantined before alerting.
	minPeers int
	// window bounds the correlation: reports older than this no longer
	// count toward the threshold.
	window   time.Duration
	cooldown time.Duration

	// quarantines maps module name → reporting creator → when the
	// quarantine report arrived here. Maintained incrementally from
	// HandleKnowledge; reports are removed when a creator later reports
	// the module healthy/probing again.
	quarantines map[string]map[string]time.Time
}

var (
	_ module.Module           = (*HealthCorr)(nil)
	_ module.KnowledgeHandler = (*HealthCorr)(nil)
)

// NewHealthCorr creates the module. Parameters: "minPeers" (int,
// default 3), "window" (duration, default 60s), "cooldown" (duration,
// default 5m).
func NewHealthCorr(params map[string]string) (module.Module, error) {
	p := module.ReadParams(params)
	return p.Done(&HealthCorr{
		base:     base{name: HealthCorrName},
		minPeers: p.Int("minPeers", 3),
		window:   p.Duration("window", time.Minute),
		cooldown: p.Duration("cooldown", 5*time.Minute),
	})
}

// WatchLabels implements module.Module: peer count changes gate the
// module on and off. The health reports that drive it do not decide
// Required; those are its KnowledgeLabels.
func (d *HealthCorr) WatchLabels() []string { return []string{"Peers"} }

// KnowledgeLabels implements module.KnowledgeHandler: every
// ModuleHealth.<module> report, local or gossiped.
func (d *HealthCorr) KnowledgeLabels() []string { return []string{knowledge.LabelModuleHealth} }

// Required implements module.Module: correlating health across nodes
// only makes sense while the collective layer has peers.
func (d *HealthCorr) Required(kb *knowledge.Base) bool {
	v, ok := kb.Int("Peers")
	return ok && v > 0
}

// Activate implements module.Module.
func (d *HealthCorr) Activate(ctx *module.Context) {
	d.base.Activate(ctx)
	d.quarantines = make(map[string]map[string]time.Time)
	// Seed from health reports that predate activation (their arrival
	// time is unknown; dating them "now" keeps them inside the window,
	// which errs toward detection), then track changes incrementally.
	for _, kg := range ctx.KB.Snapshot() {
		//lint:ignore simclock gossiped health reports arrive on wall time (UDP receive), not capture time; the window is over wall arrival
		d.record(kg, time.Now())
	}
}

// HandleKnowledge implements module.KnowledgeHandler. Correlation
// happens here — the module needs no packet evidence.
func (d *HealthCorr) HandleKnowledge(kg knowledge.Knowgget) {
	//lint:ignore simclock gossiped health reports arrive on wall time (UDP receive), not capture time; the window is over wall arrival
	now := time.Now()
	if mod := d.record(kg, now); mod != "" {
		d.correlate(mod, now)
	}
}

// record mirrors one health knowgget into the quarantine table and
// returns the module name if the report was a quarantine.
func (d *HealthCorr) record(kg knowledge.Knowgget, now time.Time) string {
	if !strings.HasPrefix(kg.Label, knowledge.LabelModuleHealth+".") || kg.Creator == "" {
		return ""
	}
	mod := kg.Label[len(knowledge.LabelModuleHealth)+1:]
	if kg.Value == "quarantined" {
		if d.quarantines[mod] == nil {
			d.quarantines[mod] = make(map[string]time.Time)
		}
		d.quarantines[mod][kg.Creator] = now
		return mod
	}
	// Recovery (probing or healthy) retires this creator's report.
	delete(d.quarantines[mod], kg.Creator)
	return ""
}

// correlate checks one module's quarantine reports against the
// threshold, expiring reports that fell out of the window.
func (d *HealthCorr) correlate(mod string, now time.Time) {
	if !d.knowledgeDriven() {
		return // cross-node correlation is knowledge; the baseline has none
	}
	reporters := d.quarantines[mod]
	fresh := make([]string, 0, len(reporters))
	for creator, at := range reporters {
		if now.Sub(at) > d.window {
			delete(reporters, creator)
			continue
		}
		fresh = append(fresh, creator)
	}
	if len(fresh) < d.minPeers {
		return
	}
	if !d.gate.Pass(mod, now, d.cooldown) {
		return
	}
	sort.Strings(fresh)
	suspects := make([]packet.NodeID, len(fresh))
	for i, c := range fresh {
		suspects[i] = packet.NodeID(c)
	}
	d.ctx.Emit(module.Alert{
		Time:       now,
		Attack:     attack.CoordinatedQuarantine,
		Module:     d.Name(),
		Suspects:   suspects,
		Confidence: 0.8,
		Details: fmt.Sprintf("module %s quarantined on %d nodes within %s",
			mod, len(fresh), d.window),
	})
}

// HandlePacket implements module.Module: this module is driven
// entirely by HandleKnowledge, not packets.
func (d *HealthCorr) HandlePacket(c *packet.Captured) {}
