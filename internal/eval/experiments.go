package eval

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"kalis/internal/attack"
	"kalis/internal/attacks"
	"kalis/internal/core"
	"kalis/internal/core/collective"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/devices"
	"kalis/internal/metrics"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/telemetry"
)

// Options configures experiment runs.
type Options struct {
	// Seed makes runs reproducible.
	Seed int64
	// Episodes overrides the per-scenario symptom-instance count
	// (0 = the scenario default of 50).
	Episodes int
	// SnortCommunityRules sizes the Snort-like community ruleset
	// (0 = default 3000).
	SnortCommunityRules int
}

// Table2Result reproduces Table II: average effectiveness and
// performance across the two §VI-B scenarios for each system.
type Table2Result struct {
	// PerScenario holds one Result per (scenario, system).
	PerScenario []Result
	// Rows aggregates per system, in {Traditional, Snort, Kalis}
	// order.
	Rows []Table2Row
}

// Table2Row is one aggregated column of Table II.
type Table2Row struct {
	System        string
	DetectionRate float64
	Accuracy      float64
	CPUPercent    float64
	RAMKB         float64
	// WorkPerPacket is the platform-independent cost measure: module
	// invocations (Kalis/traditional) or rule evaluations (Snort) per
	// processed packet.
	WorkPerPacket float64
	// Applicable counts the scenarios the system could monitor at all
	// (Snort cannot see 802.15.4; the paper reports it on the
	// scenarios it ran).
	Applicable int
}

// Table2 runs the §VI-B evaluation: the ICMP-flood-on-single-hop and
// replication-static-vs-mobile scenarios through the traditional IDS,
// the Snort-like IDS, and Kalis.
func Table2(opts Options) (*Table2Result, error) {
	scenarios := []Scenario{icmpFloodScenario(), replicationScenario()}
	out := &Table2Result{}
	type agg struct {
		score         metrics.Score
		cpu, ram      float64
		work, packets float64
		applicable    int
	}
	aggs := map[string]*agg{}
	order := []string{"Traditional IDS", "Snort", "Kalis"}
	for _, name := range order {
		aggs[name] = &agg{}
	}

	for si, sc := range scenarios {
		seed := opts.Seed + int64(si)
		results := make([]Result, 0, 3)
		tradRes, err := ExecuteTraditional(sc, seed, opts.Episodes)
		if err != nil {
			return nil, err
		}
		results = append(results, tradRes)
		snortRes, err := Execute(sc, NewSnort(opts.SnortCommunityRules), seed, opts.Episodes)
		if err != nil {
			return nil, err
		}
		results = append(results, snortRes)
		kalisRes, err := Execute(sc, NewKalis("K1"), seed, opts.Episodes)
		if err != nil {
			return nil, err
		}
		results = append(results, kalisRes)

		for _, res := range results {
			out.PerScenario = append(out.PerScenario, res)
			a := aggs[res.System]
			a.cpu += res.Resources.CPUPercent()
			a.ram += float64(res.Resources.HeapBytes) / 1024
			a.work += float64(res.Resources.WorkUnits)
			a.packets += float64(res.Resources.Packets)
			// Snort cannot monitor 802.15.4 scenarios at all: its
			// effectiveness is averaged over the scenarios it ran,
			// as the paper does.
			if res.System == "Snort" && sc.Medium != "wifi" {
				continue
			}
			a.applicable++
			a.score = a.score.Add(res.Score)
		}
	}
	for _, name := range order {
		a := aggs[name]
		row := Table2Row{
			System:        name,
			DetectionRate: a.score.DetectionRate(),
			Accuracy:      a.score.Accuracy(),
			CPUPercent:    a.cpu / float64(len(scenarios)),
			RAMKB:         a.ram / float64(len(scenarios)),
			Applicable:    a.applicable,
		}
		if a.packets > 0 {
			row.WorkPerPacket = a.work / a.packets
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Fig8Row is one scenario group of Figure 8.
type Fig8Row struct {
	Scenario      string
	KalisDR       float64
	KalisAcc      float64
	TraditionalDR float64
	TradAcc       float64
}

// Fig8Result reproduces Figure 8: Kalis vs the traditional IDS across
// all attack scenarios.
type Fig8Result struct {
	Rows []Fig8Row
	// Averages across all scenarios (the paper's "averages" series).
	KalisAvgDR, KalisAvgAcc, TradAvgDR, TradAvgAcc float64
}

// Fig8 runs the breadth evaluation (§VI-E) over the eight attack
// scenarios.
func Fig8(opts Options) (*Fig8Result, error) {
	out := &Fig8Result{}
	var kalisAgg, tradAgg metrics.Score
	for si, sc := range Scenarios() {
		seed := opts.Seed + int64(si)*101
		kalisRes, err := Execute(sc, NewKalis("K1"), seed, opts.Episodes)
		if err != nil {
			return nil, err
		}
		tradRes, err := ExecuteTraditional(sc, seed, opts.Episodes)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig8Row{
			Scenario:      sc.Name,
			KalisDR:       kalisRes.Score.DetectionRate(),
			KalisAcc:      kalisRes.Score.Accuracy(),
			TraditionalDR: tradRes.Score.DetectionRate(),
			TradAcc:       tradRes.Score.Accuracy(),
		})
		kalisAgg = kalisAgg.Add(kalisRes.Score)
		tradAgg = tradAgg.Add(tradRes.Score)
	}
	out.KalisAvgDR = kalisAgg.DetectionRate()
	out.KalisAvgAcc = kalisAgg.Accuracy()
	out.TradAvgDR = tradAgg.DetectionRate()
	out.TradAvgAcc = tradAgg.Accuracy()
	return out, nil
}

// ReactivityResult reproduces §VI-C: Kalis starts with no detection
// modules active and no a-priori knowledge, and must still catch the
// selective-forwarding attacks "from the very beginning".
type ReactivityResult struct {
	// TopologyKnownAfter is when Multihop knowledge appeared, relative
	// to simulation start.
	TopologyKnownAfter time.Duration
	// ModuleActiveAfter is when the selective-forwarding module
	// activated.
	ModuleActiveAfter time.Duration
	// FirstAlertAfterEpisode is the latency from the first episode's
	// start to the first selective-forwarding alert.
	FirstAlertAfterEpisode time.Duration
	// DetectionRate across all episodes.
	DetectionRate float64
	// InitiallyActiveDetectionModules must be zero.
	InitiallyActiveDetectionModules int
}

// Reactivity runs the §VI-C experiment.
func Reactivity(opts Options) (*ReactivityResult, error) {
	sc := selectiveForwardingScenario()
	episodes := opts.Episodes
	if episodes <= 0 {
		episodes = 10
	}
	run := sc.Build(opts.Seed, episodes)

	node, err := core.New(core.Config{
		NodeID:          "K1",
		KnowledgeDriven: true,
		WindowSize:      2048,
		InstallAll:      true,
	})
	if err != nil {
		return nil, err
	}
	out := &ReactivityResult{}
	// No detection module may be active before any traffic is seen.
	for _, name := range node.ActiveModules() {
		if name != "TrafficStatsModule" && name != "TopologyDiscoveryModule" && name != "MobilityAwarenessModule" {
			out.InitiallyActiveDetectionModules++
		}
	}
	start := run.Sim.Now()
	var topoAt, activeAt time.Time
	node.OnKnowledge(func(kg knowledge.Knowgget) {
		if kg.Label == knowledge.LabelMultihop && kg.Value == "true" && topoAt.IsZero() {
			topoAt = run.Sim.Now()
		}
	})
	// Knowledge reaches the modules at the packet boundary, so activation
	// is looked for once the frame that brought the knowledge is handled.
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		node.HandleCapture(c)
		if !topoAt.IsZero() && activeAt.IsZero() && slices.Contains(node.ActiveModules(), "SelectiveForwardingModule") {
			activeAt = run.Sim.Now()
		}
	})
	run.Sim.Run(run.End)

	ids := &kalisIDS{label: "Kalis", node: node}
	attrs := ids.Attributions()
	score := metrics.ScoreAlerts(run.Instances, attrs, opts.Seed)
	out.DetectionRate = score.DetectionRate()
	if !topoAt.IsZero() {
		out.TopologyKnownAfter = topoAt.Sub(start)
	}
	if !activeAt.IsZero() {
		out.ModuleActiveAfter = activeAt.Sub(start)
	}
	if first, ok := FirstDetection(attrs, attack.SelectiveForwarding); ok {
		out.FirstAlertAfterEpisode = first.Sub(run.Instances[0].Start)
	}
	ids.Close()
	return out, nil
}

// WormholeResult reproduces §VI-D: two Kalis nodes monitoring two
// network portions identify a wormhole only by sharing knowledge.
type WormholeResult struct {
	// WithCollective reports what each node concluded when knowledge
	// sharing was enabled.
	WithWormholeAlerts  int // wormhole alerts across both nodes
	WithBlackholeAlerts int
	WithDetectionRate   float64
	WithAccuracy        float64
	// WithoutCollective: same run, sharing disabled.
	WithoutWormholeAlerts  int
	WithoutBlackholeAlerts int
	WithoutDetectionRate   float64
	WithoutAccuracy        float64
}

// wormholeRun executes the two-portion wormhole scenario, optionally
// with collective knowledge.
func wormholeRun(seed int64, episodes int, collectiveOn bool) (insts []attacks.Instance, alerts []module.Alert, attrs []metrics.Attribution, err error) {
	sim := netsim.New(seed)

	buildPortion := func(baseAddr uint16, originX float64, prefix string, count int) []*devices.Mote {
		motes := make([]*devices.Mote, 0, count)
		for i := 0; i < count; i++ {
			addr := baseAddr + uint16(i)
			n := sim.AddNode(&netsim.Node{
				Name:   fmt.Sprintf("%s-%d", prefix, i),
				Addr16: addr,
				Pos:    netsim.Position{X: originX + float64(i)*22},
			})
			parent := addr - 1
			if i == 0 {
				parent = addr
			}
			m := devices.NewMote(n, parent, i == 0)
			if i > 0 {
				m.ETX = uint16(i * 10)
			}
			m.Start(sim.Now().Add(time.Second))
			motes = append(motes, m)
		}
		return motes
	}
	portionA := buildPortion(1, 0, "a", 4) // addrs 1..4
	buildPortion(6, 300, "b", 3)           // addrs 6..8 (portion B)
	b2 := sim.AddNode(&netsim.Node{Name: "b2", Addr16: 9, Pos: netsim.Position{X: 330, Y: 6}})

	snifA := sim.AddSniffer("kalisA", netsim.Position{X: 33, Y: 15}, packet.MediumIEEE802154)
	snifB := sim.AddSniffer("kalisB", netsim.Position{X: 322, Y: 15}, packet.MediumIEEE802154)

	newNode := func(id string) (*core.Kalis, error) {
		return core.New(core.Config{NodeID: id, KnowledgeDriven: true, WindowSize: 2048, InstallAll: true})
	}
	nodeA, err := newNode("KA")
	if err != nil {
		return nil, nil, nil, err
	}
	nodeB, err := newNode("KB")
	if err != nil {
		return nil, nil, nil, err
	}
	defer func() {
		_ = nodeA.Close()
		_ = nodeB.Close()
	}()

	if collectiveOn {
		hub := collective.NewHub()
		if err := nodeA.EnableCollective(hub.Endpoint("A"), "kalis-secret"); err != nil {
			return nil, nil, nil, err
		}
		if err := nodeB.EnableCollective(hub.Endpoint("B"), "kalis-secret"); err != nil {
			return nil, nil, nil, err
		}
		sim.Every(sim.Now().Add(2*time.Second), 10*time.Second, func() bool {
			nodeA.Collective().Beacon()
			nodeB.Collective().Beacon()
			return true
		})
	}
	snifA.Subscribe(nodeA.HandleCapture)
	snifB.Subscribe(nodeB.HandleCapture)

	sched := attacks.Schedule{
		Start:    sim.Now().Add(60 * time.Second),
		Count:    episodes,
		Every:    75 * time.Second,
		Duration: 30 * time.Second,
	}
	inj := &attacks.Wormhole{B1: portionA[2], B2: b2, B2Parent: 7}
	insts = inj.Inject(sim, sched)
	sim.Run(insts[len(insts)-1].End.Add(30 * time.Second))

	alerts = append(nodeA.Alerts(), nodeB.Alerts()...)
	for _, a := range alerts {
		attrs = append(attrs, metrics.Attribution{
			Time: a.Time, Attack: a.Attack, Victim: a.Victim,
			Suspects: a.Suspects, Confidence: a.Confidence,
		})
	}
	return insts, alerts, attrs, nil
}

// KnowledgeSharing runs the §VI-D experiment with and without
// collective knowledge.
func KnowledgeSharing(opts Options) (*WormholeResult, error) {
	episodes := opts.Episodes
	if episodes <= 0 {
		episodes = 10
	}
	out := &WormholeResult{}

	insts, alerts, attrs, err := wormholeRun(opts.Seed, episodes, true)
	if err != nil {
		return nil, err
	}
	score := metrics.ScoreAlerts(insts, attrs, opts.Seed)
	out.WithDetectionRate = score.DetectionRate()
	out.WithAccuracy = score.Accuracy()
	for _, a := range alerts {
		switch a.Attack {
		case attack.Wormhole:
			out.WithWormholeAlerts++
		case attack.Blackhole:
			out.WithBlackholeAlerts++
		}
	}

	insts, alerts, attrs, err = wormholeRun(opts.Seed, episodes, false)
	if err != nil {
		return nil, err
	}
	score = metrics.ScoreAlerts(insts, attrs, opts.Seed)
	out.WithoutDetectionRate = score.DetectionRate()
	out.WithoutAccuracy = score.Accuracy()
	for _, a := range alerts {
		switch a.Attack {
		case attack.Wormhole:
			out.WithoutWormholeAlerts++
		case attack.Blackhole:
			out.WithoutBlackholeAlerts++
		}
	}
	return out, nil
}

// ModuleOverheadRow is one module's cost within a scenario, scraped
// from the node's kalis_module_packet_seconds histogram after the
// replay: how often the module ran, its mean per-invocation latency,
// and its share of the total time spent inside detection modules. The
// histogram times one packet in 16 and weights each observation 16, so
// Invocations is an estimate — a multiple of 16 within 16 of the true
// count — and MeanMicros the mean of the timed invocations.
type ModuleOverheadRow struct {
	Module      string
	Invocations uint64
	MeanMicros  float64
	Share       float64
}

// ModuleOverheadScenario is the per-module cost breakdown for one
// Fig. 8 scenario.
type ModuleOverheadScenario struct {
	Scenario string
	// Packets the node processed (kalis_packets_total).
	Packets uint64
	// TotalMicrosPerPacket is the summed module time divided by the
	// packet count: the aggregate detection overhead per packet.
	TotalMicrosPerPacket float64
	Rows                 []ModuleOverheadRow
}

// ModuleOverheadResult holds the per-scenario module overhead tables.
type ModuleOverheadResult struct {
	Scenarios []ModuleOverheadScenario
}

// ModuleOverhead replays every Fig. 8 scenario through a fresh Kalis
// node and reads the per-module latency histograms off the node's
// telemetry registry before closing it. Unlike Table II this measures
// where the time goes, not how much the whole system costs.
func ModuleOverhead(opts Options) (*ModuleOverheadResult, error) {
	out := &ModuleOverheadResult{}
	for si, sc := range Scenarios() {
		seed := opts.Seed + int64(si)*101
		episodes := opts.Episodes
		if episodes <= 0 {
			episodes = sc.Episodes
		}
		node, err := core.New(core.Config{
			NodeID:          "K1",
			KnowledgeDriven: true,
			WindowSize:      2048,
			InstallAll:      true,
		})
		if err != nil {
			return nil, err
		}
		run := sc.Build(seed, episodes)
		run.Sniffer.Subscribe(node.HandleCapture)
		run.Sim.Run(run.End)

		snap := node.Telemetry().Snapshot()
		if err := node.Close(); err != nil {
			return nil, err
		}

		scen := ModuleOverheadScenario{Scenario: sc.Name}
		if ms, ok := snap["kalis_packets_total"]; ok {
			if n, ok := ms.Value.(uint64); ok {
				scen.Packets = n
			}
		}
		var totalSeconds float64
		if ms, ok := snap["kalis_module_packet_seconds"]; ok {
			byModule, _ := ms.Value.(map[string]interface{})
			for name, v := range byModule {
				h, ok := v.(telemetry.HistogramSnapshot)
				if !ok || h.Count == 0 {
					continue
				}
				totalSeconds += h.SumSeconds
				scen.Rows = append(scen.Rows, ModuleOverheadRow{
					Module:      name,
					Invocations: h.Count,
					MeanMicros:  h.SumSeconds / float64(h.Count) * 1e6,
				})
			}
		}
		if totalSeconds > 0 {
			for i := range scen.Rows {
				r := &scen.Rows[i]
				r.Share = r.MeanMicros * float64(r.Invocations) / 1e6 / totalSeconds
			}
		}
		if scen.Packets > 0 {
			scen.TotalMicrosPerPacket = totalSeconds / float64(scen.Packets) * 1e6
		}
		sort.Slice(scen.Rows, func(i, j int) bool {
			if scen.Rows[i].Share != scen.Rows[j].Share {
				return scen.Rows[i].Share > scen.Rows[j].Share
			}
			return scen.Rows[i].Module < scen.Rows[j].Module
		})
		out.Scenarios = append(out.Scenarios, scen)
	}
	return out, nil
}

// CountermeasureResult reproduces the §VI-B1 response-action
// comparison: Kalis "correctly revokes only the attacking node, while
// the traditional IDS ... disconnect[s] the entire network".
type CountermeasureResult struct {
	Kalis       metrics.Countermeasure
	Traditional metrics.Countermeasure
}

// Countermeasure runs the ICMP-flood scenario with the simple
// revocation countermeasure wired to each system's alerts.
func Countermeasure(opts Options) (*CountermeasureResult, error) {
	episodes := opts.Episodes
	if episodes <= 0 {
		episodes = 5
	}
	runOne := func(factory Factory) (metrics.Countermeasure, error) {
		sc := icmpFloodScenario()
		run := sc.Build(opts.Seed, episodes)
		ids, err := factory(opts.Seed)
		if err != nil {
			return metrics.Countermeasure{}, err
		}
		defer ids.Close()
		var revoked []packet.NodeID
		seen := map[packet.NodeID]bool{}
		if sink, ok := ids.(AlertSink); ok {
			sink.OnAlert(func(a module.Alert) {
				for _, s := range a.Suspects {
					if seen[s] {
						continue
					}
					seen[s] = true
					if n := run.Nodes[s]; n != nil {
						n.Revoke()
						revoked = append(revoked, s)
					}
				}
			})
		}
		run.Sniffer.Subscribe(ids.HandleCapture)
		run.Sim.Run(run.End)
		return metrics.ScoreCountermeasure(revoked, run.Attackers, run.Victim), nil
	}

	kalisCM, err := runOne(NewKalis("K1"))
	if err != nil {
		return nil, err
	}
	tradCM, err := runOne(NewTraditional())
	if err != nil {
		return nil, err
	}
	return &CountermeasureResult{Kalis: kalisCM, Traditional: tradCM}, nil
}
