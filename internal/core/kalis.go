// Package core assembles a complete Kalis node from its components
// (Fig. 4): the Communication System hands captured packets to a shard
// — Data Store, flow table and Module Manager — inline or through an
// ingest ring; sensing modules distill knowggets into the Knowledge
// Base; the Knowledge Base drives dynamic activation of detection
// modules; knowledge changes, alerts and flow records are handed to
// typed subscribers (dashboards, countermeasures, the smart firewall)
// and collective knowledge synchronizes with peer Kalis nodes.
package core

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"kalis/internal/core/collective"
	"kalis/internal/core/datastore"
	"kalis/internal/core/detection"
	"kalis/internal/core/kconfig"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/core/sensing"
	"kalis/internal/flow"
	"kalis/internal/ingest"
	"kalis/internal/packet"
	"kalis/internal/persist"
	"kalis/internal/telemetry"
)

// Config configures a Kalis node.
type Config struct {
	// NodeID identifies this Kalis node (the knowgget creator field).
	NodeID string
	// KnowledgeDriven enables adaptive module activation; disabling it
	// yields the paper's traditional-IDS baseline (all installed
	// modules always active, no knowledge use).
	KnowledgeDriven bool
	// WindowSize is the Data Store sliding-window capacity (packets);
	// 0 selects the default.
	WindowSize int
	// Async takes dispatch off the capture goroutine (the paper's "all
	// components run independently" mode): packets go through an ingest
	// ring to a worker even with a single shard — drop-newest when the
	// ring is full, counted exactly in IngestStats — and that worker
	// runs the modules and every OnAlert/OnKnowledge/OnFlowRecord
	// subscriber. In-line dispatch is deterministic and is the default
	// for experiments.
	Async bool
	// ConfigText is an optional configuration file in the Fig. 6
	// grammar: module activations and a-priori knowggets.
	ConfigText string
	// InstallAll installs every registered module (the usual Kalis
	// deployment: the whole module library is available and the
	// Knowledge Base decides what runs). Modules listed in ConfigText
	// are installed with their parameters either way.
	InstallAll bool
	// StateDir, when non-empty, enables durable state: the Knowledge
	// Base is recovered from this directory at startup (warm restart)
	// and persisted across the node's lifetime via one write-ahead log
	// and snapshots. The Data Store window is not: it starts empty at
	// every startup. Empty disables persistence entirely.
	StateDir string
	// PersistInterval is the capture time between durable-state sync
	// points — the most a power cut can lose; 0 selects
	// persist.DefaultInterval. Ignored without StateDir.
	PersistInterval time.Duration
	// Shards selects the ingestion parallelism. 0 or 1 is one shard,
	// dispatched in line unless Async is set (deterministic; the
	// simulator and virtual-clock tests depend on it). n > 1 runs
	// min(n, 3) shards — each with its own ring buffer, worker, Data
	// Store window, flow table with its trackers, and module instances
	// — and a shard owns whole media (see ingest): 802.15.4 on one,
	// WiFi and wired on another, BLE on a third, folded onto fewer
	// shards when n < 3. A medium's state and capture order stay on its
	// shard.
	Shards int
	// IngestBlock selects lossless ingestion backpressure (spin until
	// ring space frees) instead of the default drop-newest policy.
	// Honoured whenever a ring exists.
	IngestBlock bool
	// IngestMaxSkew bounds, in capture time, how far one medium's feed
	// may run ahead of another medium's busy shard — see
	// ingest.Config.MaxSkew. Only honoured with IngestBlock and
	// Shards > 1; 0 disables.
	IngestMaxSkew time.Duration
}

// shard is one packet pipeline and the owner of its state: a Data Store
// window, a flow table with its endpoint trackers and alert cooldowns,
// and a Module Manager with its own module *instances* (detection
// modules keep per-medium state and are not written for concurrent
// dispatch). Every packet reaches the modules through HandleBatch,
// called by exactly one goroutine per shard.
//
// The first shard is the primary, and the traffic log exists on it
// only (SetLog: the trace format is one serial stream): on a node with
// more than one shard the other shards' windows are not logged. The
// durable-state manager is the node's and every shard drives its sync
// points on its own capture clock, so a node that hears one medium only
// still reaches them whichever shard that medium has.
type shard struct {
	store   *datastore.Store
	table   *flow.Table
	manager *module.Manager
	persist *persist.Manager // nil without a state dir: ticked per batch
}

// HandleBatch implements ingest.Sink for a non-empty batch: module
// dispatch, then the durable-state tick on the batch's latest capture
// time (sync points run on the capture clock, like every other
// time-driven behavior in the pipeline).
func (s *shard) HandleBatch(batch []*packet.Captured) {
	s.manager.HandleBatch(batch)
	if s.persist != nil {
		s.persist.Tick(batch[len(batch)-1].Time)
	}
}

// Kalis is one IDS node: one or more shards behind a shared Knowledge
// Base, module registry, event fan-outs and telemetry registry. There
// is one packet path — HandleCapture → shard.HandleBatch — with two
// executors: in line on the caller's goroutine when the node has no
// ingest ring, on the shard's ring worker otherwise.
type Kalis struct {
	id       string
	kb       *knowledge.Base
	registry *module.Registry
	tel      *telemetry.Registry
	shards   []*shard
	pipe     *ingest.Pipeline // nil: in-line dispatch
	coll     *collective.Node
	closed   atomic.Bool
	// The node's three outputs, each with one publisher: the shards'
	// managers, the Knowledge Base and the shards' flow tables.
	alerts  fanout[module.Alert]
	changes fanout[knowledge.Knowgget]
	records fanout[flow.Record]
}

// New builds a Kalis node.
func New(cfg Config) (*Kalis, error) {
	if cfg.NodeID == "" {
		cfg.NodeID = "K1"
	}
	k := construct(cfg)
	// Durable state recovers BEFORE modules are installed and before
	// any traffic flows: knowledge-driven activation at install time
	// must see the recovered Knowledge Base, and recovery bulk-loads
	// without firing knowledge events.
	if err := k.recover(cfg); err != nil {
		return nil, err
	}
	k.wire(cfg)
	if err := k.install(cfg); err != nil {
		return nil, err
	}
	return k, nil
}

// construct allocates the node's components, unconnected.
func construct(cfg Config) *Kalis {
	k := &Kalis{
		id:       cfg.NodeID,
		kb:       knowledge.NewBase(cfg.NodeID),
		registry: module.NewRegistry(),
		tel:      telemetry.NewRegistry(),
		shards:   make([]*shard, min(max(cfg.Shards, 1), ingest.MediumKeys)),
	}
	sensing.Register(k.registry)
	detection.Register(k.registry)
	for i := range k.shards {
		store, table := datastore.New(cfg.WindowSize), flow.NewTable(flow.Config{})
		k.shards[i] = &shard{
			store:   store,
			table:   table,
			manager: module.NewManager(k.kb, store, table, cfg.KnowledgeDriven),
		}
	}
	return k
}

// primary returns the shard that carries the traffic log (see shard),
// and the durable-state manager every shard shares. It also answers questions the shared Knowledge
// Base decides identically for every shard (which modules are
// installed, which are active).
func (k *Kalis) primary() *shard { return k.shards[0] }

// recover opens the state directory, if any, loads the persisted
// Knowledge Base, and hands the manager to every shard.
func (k *Kalis) recover(cfg Config) error {
	if cfg.StateDir == "" {
		return nil
	}
	pm, err := persist.Open(persist.Config{
		Dir:      cfg.StateDir,
		Interval: cfg.PersistInterval,
		Metrics: persist.Metrics{
			Snapshots: k.tel.Counter("kalis_persist_snapshot_total",
				"Checkpoints written (log past threshold, new static knowledge, shutdown)."),
			Syncs: k.tel.Counter("kalis_persist_sync_total",
				"Sync points that made new KB records durable."),
			JournalBytes: k.tel.Gauge("kalis_persist_journal_bytes",
				"Logical size of the state log in bytes: its header and the KB write-ahead records since the last checkpoint, not the file's preallocated length."),
			Recoveries: k.tel.CounterVec("kalis_persist_recoveries_total", "outcome",
				"State recoveries at startup, by outcome (warm, truncated, cold)."),
		},
	}, k.kb)
	if err != nil {
		return fmt.Errorf("kalis: persist: %w", err)
	}
	for _, s := range k.shards {
		s.persist = pm
	}
	return nil
}

// wire connects the components: telemetry, the shards' outputs (alerts,
// flow records) and the Knowledge Base's changes onto the node's
// fan-outs, and the ingest ring when the node needs one.
func (k *Kalis) wire(cfg Config) {
	k.wireTelemetry()
	for _, s := range k.shards {
		s.table.OnExport(k.records.publish)
		s.manager.OnAlert(k.alerts.publish)
	}
	k.kb.SubscribeAll(k.changes.publish)

	// The executor follows from what the node already knows: several
	// shards need rings to be fed in parallel, and an asynchronous node
	// must not dispatch on the capture goroutine. Everything else
	// dispatches in line.
	if len(k.shards) > 1 || cfg.Async {
		sinks := make([]ingest.Sink, len(k.shards))
		for i, s := range k.shards {
			sinks[i] = s
		}
		k.pipe = ingest.New(ingest.Config{
			Shards:  len(k.shards),
			Block:   cfg.IngestBlock,
			MaxSkew: cfg.IngestMaxSkew,
		}, sinks, ingestMetrics(k.tel, len(k.shards)))
	}
}

// install loads the configuration file's knowggets and modules, then
// the rest of the library when asked to. Each shard's manager gets its
// own module instances: modules keep per-medium detector state, which
// is exactly the state the medium key keeps shard-local.
func (k *Kalis) install(cfg Config) error {
	installed := make(map[string]bool)
	if cfg.ConfigText != "" {
		parsed, err := kconfig.Parse(cfg.ConfigText)
		if err != nil {
			return fmt.Errorf("kalis: config: %w", err)
		}
		for _, kg := range parsed.Knowggets {
			k.kb.PutStatic(kg.Label, kg.Entity, kg.Value)
		}
		for _, def := range parsed.Modules {
			if err := k.Install(def.Name, def.Params); err != nil {
				return fmt.Errorf("kalis: config: %w", err)
			}
			installed[def.Name] = true
		}
	}
	if cfg.InstallAll {
		for _, name := range k.registry.Names() {
			if installed[name] {
				continue
			}
			if err := k.Install(name, nil); err != nil {
				return fmt.Errorf("kalis: install %s: %w", name, err)
			}
		}
	}
	return nil
}

// ingestMetrics registers the per-shard ingestion metrics and
// pre-resolves every shard's children so the enqueue and drain paths
// never pay a Vec lookup.
func ingestMetrics(tel *telemetry.Registry, shards int) ingest.Metrics {
	depth := tel.GaugeVec("kalis_ingest_queue_depth", "shard",
		"Packets currently queued in each shard's ingest ring.")
	drops := tel.CounterVec("kalis_ingest_drops_total", "shard",
		"Packets dropped by each full shard ring (drop-newest backpressure).")
	met := ingest.Metrics{
		BatchSize: tel.Histogram("kalis_ingest_batch_size",
			"Packets per drained ingest batch, encoded as 1 packet == 1s (sum == total packets).",
			ingest.BatchSizeBuckets),
	}
	for i := 0; i < shards; i++ {
		label := strconv.Itoa(i)
		met.Depth = append(met.Depth, depth.With(label))
		met.Drops = append(met.Drops, drops.With(label))
	}
	return met
}

// wireTelemetry registers the node's runtime metrics and installs the
// hooks into every instrumented component. Metric names are documented
// in the "Runtime telemetry" section of README.md.
//
// Counters and histograms are additive and shared by all shards. Gauges
// are computed at scrape time from the components themselves, so the
// packet path never stores one and concurrent shards cannot overwrite
// each other.
func (k *Kalis) wireTelemetry() {
	tel := k.tel
	// The series keeps the name it had when these events crossed an
	// event bus: dashboards and benchmark/perlayer.go read it.
	published := tel.CounterVec("kalis_bus_publishes_total", "topic",
		"Events handed to the node's subscribers, by topic (knowledge, detection, flow.records).")
	k.changes.published = published.With("knowledge")
	k.alerts.published = published.With("detection")
	k.records.published = published.With("flow.records")
	alerts := tel.CounterVec("kalis_alerts_total", "attack",
		"Detection alerts raised, by canonical attack name.")
	k.alerts.subscribe(func(a module.Alert) {
		//lint:ignore hotpath alerts are rare and cooldown-gated; one label lookup per alert is off the per-packet budget
		alerts.With(a.Attack).Inc()
	})
	tel.GaugeFunc("kalis_modules_active",
		"Currently active modules (knowledge-driven adaptation).",
		func() float64 { return float64(len(k.ActiveModules())) })
	// perShard registers a gauge that sums one per-shard quantity.
	perShard := func(name, help string, of func(*shard) int) {
		tel.GaugeFunc(name, help, func() float64 {
			n := 0
			for _, s := range k.shards {
				n += of(s)
			}
			return float64(n)
		})
	}
	perShard("kalis_module_quarantined",
		"Modules currently quarantined after a panic, summed over shards.",
		func(s *shard) int { return len(s.manager.Quarantined()) })
	perShard("kalis_store_window_occupancy",
		"Packets currently held in the Data Store sliding windows (all shards).",
		func(s *shard) int { return s.store.Len() })
	perShard("kalis_store_window_capacity",
		"Data Store sliding-window capacity in packets (all shards).",
		func(s *shard) int { return s.store.Capacity() })
	perShard("kalis_flow_active",
		"Flows currently tracked across all shard flow tables.",
		func(s *shard) int { return s.table.Len() })
	mmet := module.ManagerMetrics{
		Packets: tel.Counter("kalis_packets_total",
			"Packets dispatched to the module pipeline."),
		PacketLatency: tel.HistogramVec("kalis_module_packet_seconds", "module",
			"Per-module packet-handling latency, estimated: one packet in 16 is timed and each observation counts 16.", nil),
		Panics: tel.CounterVec("kalis_module_panics_total", "module",
			"Module panics recovered by the supervisor, by module."),
		FlowUpdate: tel.Histogram("kalis_flow_update_seconds",
			"Per-packet flow-table and feature update latency.", nil),
	}
	smet := datastore.StoreMetrics{
		Appended: tel.Counter("kalis_store_appended_total",
			"Packets ever appended to the Data Store."),
	}
	fmet := flow.Metrics{
		Expirations: tel.Counter("kalis_flow_expirations_total",
			"Flows exported after idle or active timeout (incl. shutdown flush)."),
		Evictions: tel.Counter("kalis_flow_evictions_total",
			"Flows exported early because the table hit its capacity bound."),
	}
	for _, s := range k.shards {
		s.manager.SetMetrics(mmet)
		s.store.SetMetrics(smet)
		s.table.SetMetrics(fmet)
	}
	telemetry.RegisterRuntimeMetrics(tel)
}

// ID returns the node identifier.
func (k *Kalis) ID() string { return k.id }

// Telemetry returns the node's runtime-metrics registry, always
// populated: instrumentation is cheap enough to stay on (see
// BenchmarkTelemetryHotPath in internal/telemetry).
func (k *Kalis) Telemetry() *telemetry.Registry { return k.tel }

// KB returns the node's Knowledge Base.
func (k *Kalis) KB() *knowledge.Base { return k.kb }

// Registry returns the node's module registry (for installing custom
// modules).
func (k *Kalis) Registry() *module.Registry { return k.registry }

// Install instantiates a registered module by name and installs it —
// one instance per shard, since modules hold per-medium state and each
// shard dispatches independently.
func (k *Kalis) Install(name string, params map[string]string) error {
	for _, s := range k.shards {
		mod, err := k.registry.New(name, params)
		if err != nil {
			return err
		}
		s.manager.Install(mod, params)
	}
	return nil
}

// Installed returns the names of all installed modules, in install
// order (every shard installs the same set).
func (k *Kalis) Installed() []string { return k.primary().manager.Installed() }

// HandleCapture feeds one captured packet into the node — the entry
// point wired to sniffers and trace replay. With an ingest ring the
// packet is enqueued to its medium's shard and dispatched by that
// shard's worker; without one (a single synchronous shard) it is
// dispatched here, as a one-element batch, before HandleCapture
// returns (it waits for the shard's dispatch token, so concurrent
// callers take turns and a module or subscriber must not call it from
// inside a dispatch). A closed node ignores captures.
func (k *Kalis) HandleCapture(c *packet.Captured) {
	if k.pipe != nil {
		k.pipe.Enqueue(c)
		return
	}
	if k.closed.Load() {
		return
	}
	one := [1]*packet.Captured{c}
	k.shards[0].HandleBatch(one[:])
}

// DrainIngest blocks until every packet accepted by the ingest rings so
// far has been dispatched. A no-op on nodes that dispatch in line. Call
// it before reading alerts or counters after a replay, or rely on
// Close, which drains losslessly.
func (k *Kalis) DrainIngest() {
	if k.pipe != nil {
		k.pipe.Drain()
	}
}

// IngestStats returns the ingest rings' packet accounting (the zero
// Stats on nodes that dispatch in line).
func (k *Kalis) IngestStats() ingest.Stats {
	if k.pipe != nil {
		return k.pipe.Stats()
	}
	return ingest.Stats{}
}

// Shards returns the number of shards the node built: min(n, 3) for
// Config.Shards n (see Config.Shards).
func (k *Kalis) Shards() int { return len(k.shards) }

// Stats returns the node's work-accounting counters, summed over
// shards: packets dispatched, (packet × active module) invocations —
// the paper's CPU proxy — and activation transitions.
func (k *Kalis) Stats() (packets, invocations, activations uint64) {
	for _, s := range k.shards {
		p, i, a := s.manager.Stats()
		packets, invocations, activations = packets+p, invocations+i, activations+a
	}
	return packets, invocations, activations
}

// OnAlert registers a consumer of raised alerts. Like OnKnowledge and
// OnFlowRecord it may be called at any time; consumers run in
// registration order on the goroutine that produced the event (see
// fanout), until Close returns.
func (k *Kalis) OnAlert(fn func(module.Alert)) { k.alerts.subscribe(fn) }

// OnKnowledge registers a consumer of accepted Knowledge Base changes.
func (k *Kalis) OnKnowledge(fn func(knowledge.Knowgget)) { k.changes.subscribe(fn) }

// mergeByTime merges per-shard lists, each in its shard's dispatch
// order, into one list ordered by capture time; a single list comes
// back as it is.
func mergeByTime[T any](lists [][]T, at func(T) time.Time) []T {
	var out []T
	for {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || at(l[0]).Before(at(lists[best][0]))) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

// Alerts returns every alert collected so far, the shards' collections
// merged in capture-time order.
func (k *Kalis) Alerts() []module.Alert {
	lists := make([][]module.Alert, len(k.shards))
	for i, s := range k.shards {
		lists[i] = s.manager.Alerts()
	}
	return mergeByTime(lists, func(a module.Alert) time.Time { return a.Time })
}

// Recent returns up to n of the most recently observed packets, oldest
// first, from every shard's Data Store window merged by capture time.
// n <= 0 returns the whole windows.
func (k *Kalis) Recent(n int) []*packet.Captured {
	lists := make([][]*packet.Captured, len(k.shards))
	for i, s := range k.shards {
		lists[i] = s.store.Recent(n)
	}
	out := mergeByTime(lists, func(c *packet.Captured) time.Time { return c.Time })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// ActiveModules returns the names of currently active modules.
// Activation is a Knowledge Base decision and the KB is shared, so
// every shard activates identically.
func (k *Kalis) ActiveModules() []string { return k.primary().manager.Active() }

// QuarantinedModules returns, in install order, the modules the
// supervisor currently withholds from dispatch after a panic on any
// shard — supervision is per shard instance.
func (k *Kalis) QuarantinedModules() []string {
	withheld := make(map[string]bool)
	for _, s := range k.shards {
		for _, name := range s.manager.Quarantined() {
			withheld[name] = true
		}
	}
	var out []string
	for _, name := range k.Installed() {
		if withheld[name] {
			out = append(out, name)
		}
	}
	return out
}

// ModuleHealth reports every installed module's activation and
// supervision state ("inactive", "healthy", "probing", "quarantined"):
// its most-degraded state across shards.
func (k *Kalis) ModuleHealth() map[string]string {
	rank := map[string]int{"inactive": 0, "healthy": 1, "probing": 2, "quarantined": 3}
	out := make(map[string]string)
	for _, s := range k.shards {
		for name, state := range s.manager.Health() {
			if prev, ok := out[name]; !ok || rank[state] > rank[prev] {
				out[name] = state
			}
		}
	}
	return out
}

// LastPanic returns the most recent recovered panic value of a module
// on any shard ("" when it never panicked), for diagnostics and tests.
func (k *Kalis) LastPanic(name string) string {
	for _, s := range k.shards {
		if p := s.manager.LastPanic(name); p != "" {
			return p
		}
	}
	return ""
}

// OnFlowRecord registers a consumer for exported flow records (flows
// that expired, were evicted, or were flushed by Close).
func (k *Kalis) OnFlowRecord(fn func(flow.Record)) { k.records.subscribe(fn) }

// SetLog enables traffic logging to w in the Kalis trace format: the
// primary shard's traffic, which on a node with more than one shard is
// its media only — 802.15.4, and BLE when the node has two shards (see
// shard).
func (k *Kalis) SetLog(w io.Writer) { k.primary().store.SetLog(w) }

// FlushLog flushes the traffic log, if enabled.
func (k *Kalis) FlushLog() error { return k.primary().store.FlushLog() }

// EnableCollective attaches collective knowledge management over the
// given transport with a pre-shared passphrase.
func (k *Kalis) EnableCollective(t collective.Transport, passphrase string) error {
	n, err := collective.NewNode(k.kb, t, passphrase)
	if err != nil {
		return err
	}
	n.SetMetrics(collective.Metrics{
		SyncSent: k.tel.Counter("kalis_collective_sync_sent_total",
			"Knowgget updates pushed to peer Kalis nodes."),
		SyncReceived: k.tel.Counter("kalis_collective_sync_received_total",
			"Creator-verified knowgget updates accepted from peers."),
		SyncRejected: k.tel.Counter("kalis_collective_sync_rejected_total",
			"Knowgget updates refused (creator mismatch)."),
		Peers: k.tel.Gauge("kalis_collective_peers",
			"Discovered peer Kalis nodes."),
		Evictions: k.tel.Counter("kalis_collective_peer_evictions_total",
			"Peers evicted for silence (TTL) or to respect the table bound."),
		SendRetries: k.tel.Counter("kalis_collective_send_retries_total",
			"Retransmissions after transient peer-send failures."),
		Malformed: k.tel.Counter("kalis_collective_malformed_total",
			"Datagrams discarded as malformed (failed decrypt or parse)."),
		DigestsSent: k.tel.Counter("kalis_collective_digests_sent_total",
			"Anti-entropy gossip digests sent to fan-out peers."),
		DigestsReceived: k.tel.Counter("kalis_collective_digests_received_total",
			"Anti-entropy gossip digests received from peers."),
		DeltasSent: k.tel.Counter("kalis_collective_deltas_sent_total",
			"Delta messages sent (piggybacked flushes, pulls, bootstraps)."),
		DeltasReceived: k.tel.Counter("kalis_collective_deltas_received_total",
			"Delta sections applied from peers."),
		BytesSent: k.tel.Counter("kalis_collective_bytes_sent_total",
			"Sealed collective wire bytes sent."),
		BytesReceived: k.tel.Counter("kalis_collective_bytes_received_total",
			"Sealed collective wire bytes received."),
	})
	k.coll = n
	return nil
}

// Collective returns the collective-knowledge manager, or nil.
func (k *Kalis) Collective() *collective.Node { return k.coll }

// SuggestConfig distills the node's current knowledge into a fixed
// configuration file — the paper's envisioned compile-time deployment
// for very small devices (§VIII): "selecting a specific module
// configuration — based on the knowledge collected by Kalis in a
// network — and ... deploy that configuration at compile-time". The
// output lists the detection modules the current knowledge requires
// (with their installed parameters) and pins the discovered network
// features as a-priori knowggets, so a constrained node skips
// discovery entirely. The result parses back with kconfig.Parse.
func (k *Kalis) SuggestConfig() string {
	cfg := &kconfig.Config{}
	m := k.primary().manager
	for _, name := range m.Active() {
		if kind, ok := m.ModuleKind(name); !ok || kind != module.KindDetection {
			continue
		}
		def := kconfig.ModuleDef{Name: name}
		if params := m.ParamsOf(name); len(params) > 0 {
			def.Params = params
		}
		cfg.Modules = append(cfg.Modules, def)
	}
	for _, label := range []string{
		knowledge.LabelMultihop, knowledge.LabelMobility, knowledge.LabelEncrypted,
	} {
		if v, ok := k.kb.Value(label); ok {
			cfg.Knowggets = append(cfg.Knowggets, kconfig.KnowggetDef{Label: label, Value: v})
		}
	}
	for _, kg := range k.kb.QueryPrefix(knowledge.EscapeComponent(k.id) + "$" + knowledge.LabelMediums + ".") {
		cfg.Knowggets = append(cfg.Knowggets, kconfig.KnowggetDef{Label: kg.Label, Value: kg.Value})
	}
	return kconfig.Generate(cfg)
}

// Persistence returns the durable-state manager, or nil when the node
// runs without a state directory.
func (k *Kalis) Persistence() *persist.Manager { return k.primary().persist }

// Close shuts the node down: the ingest rings drain losslessly (every
// accepted packet is dispatched), the flow tables flush their
// remaining flows as records to the OnFlowRecord consumers, event
// delivery ends, the traffic log flushes and closes, durable state takes
// its final snapshot, and the collective layer closes. HandleCapture is
// a no-op afterwards.
func (k *Kalis) Close() error {
	k.closed.Store(true)
	if k.pipe != nil {
		k.pipe.Stop()
	}
	for _, s := range k.shards {
		s.table.Flush()
	}
	k.alerts.close()
	k.changes.close()
	k.records.close()
	p := k.primary()
	err := p.store.CloseLog()
	if p.persist != nil {
		if perr := p.persist.Stop(); err == nil {
			err = perr
		}
	}
	if k.coll != nil {
		if cerr := k.coll.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
