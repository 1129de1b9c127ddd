// Package kalis is a knowledge-driven, self-adapting intrusion
// detection system for the Internet of Things — a from-scratch Go
// implementation of "Kalis — A System for Knowledge-driven Adaptable
// Intrusion Detection for the Internet of Things" (ICDCS 2017).
//
// A Kalis node passively overhears heterogeneous IoT traffic (IEEE
// 802.15.4/ZigBee/6LoWPAN/CTP, WiFi/IP, BLE), autonomously distills
// knowledge about the monitored network's features (topology, traffic
// statistics, mobility, mediums) into a Knowledge Base of "knowggets",
// and uses that knowledge to dynamically activate exactly the
// detection modules the environment calls for. Collective knowledge
// management lets multiple Kalis nodes share selected knowggets over
// an encrypted channel and detect distributed attacks (e.g. wormholes)
// no single observer could classify.
//
// Quick start:
//
//	node, err := kalis.New(kalis.WithNodeID("K1"))
//	if err != nil { ... }
//	defer node.Close()
//	node.OnAlert(func(a kalis.Alert) { fmt.Println("ALERT:", a.Attack, a.Suspects) })
//	for capture := range captures { node.HandleCapture(capture) }
//
// See the examples/ directory for complete scenarios, and cmd/kalis-bench
// for the reproduction of the paper's evaluation.
package kalis

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"kalis/internal/core"
	"kalis/internal/core/collective"
	"kalis/internal/core/firewall"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/core/response"
	"kalis/internal/flow"
	"kalis/internal/ingest"
	"kalis/internal/packet"
	"kalis/internal/siem"
	"kalis/internal/telemetry"
	"kalis/internal/trace"
)

// Re-exported core types: these are the vocabulary of the public API.
type (
	// Alert is a detection event raised by a detection module.
	Alert = module.Alert
	// Knowgget is one piece of knowledge ⟨label, value, creator,
	// entity⟩ in the Knowledge Base.
	Knowgget = knowledge.Knowgget
	// Captured is one overheard frame with its capture metadata and
	// decoded protocol layers.
	Captured = packet.Captured
	// NodeID identifies a monitored network entity.
	NodeID = packet.NodeID
	// Module is the interface custom sensing/detection modules
	// implement. The node is a module's only caller and enters it on one
	// goroutine at a time, so a module needs no locking of its own. A
	// module that also has the two methods
	//
	//	KnowledgeLabels() []string
	//	HandleKnowledge(Knowgget)
	//
	// is handed every change of those labels — local or from a peer
	// node — while it is active, between two packets of its shard; that
	// replaces subscribing to the Knowledge Base from inside a module,
	// which would run on the writer's goroutine.
	Module = module.Module
	// ModuleContext carries the dependencies injected into an active
	// module.
	ModuleContext = module.Context
	// Firewall is the smart-firewall deployment component.
	Firewall = firewall.Firewall
	// FirewallVerdict is a firewall filtering decision.
	FirewallVerdict = firewall.Verdict
	// Responder executes automatic response actions driven by alerts.
	Responder = response.Responder
	// ResponsePolicy maps attack classes to response actions.
	ResponsePolicy = response.Policy
	// FlowRecord is an exported (expired/terminated) flow summary with
	// its final per-flow feature values.
	FlowRecord = flow.Record
	// FlowKey identifies one unidirectional flow (medium + endpoints +
	// protocol class + ports).
	FlowKey = flow.Key
	// IngestStats is the ingest rings' packet accounting:
	// Enqueued == Accepted + Dropped always, and
	// Accepted == Delivered at every quiescent point (after
	// DrainIngest or Close).
	IngestStats = ingest.Stats
)

// DefaultResponsePolicy isolates on high-confidence alerts with the
// given cap on how many entities may ever be isolated.
func DefaultResponsePolicy(maxIsolations int) ResponsePolicy {
	return response.DefaultPolicy(maxIsolations)
}

// Firewall verdicts.
const (
	FirewallAllow = firewall.Allow
	FirewallDrop  = firewall.Drop
)

// Option configures a Node.
type Option func(*core.Config)

// WithNodeID sets the node identifier (the knowgget creator field)
// used to distinguish this Kalis node from its peers. Default "K1".
func WithNodeID(id string) Option {
	return func(c *core.Config) { c.NodeID = id }
}

// WithConfig supplies a configuration file in the paper's Fig. 6
// grammar: module activations with parameters, and a-priori static
// knowggets.
func WithConfig(text string) Option {
	return func(c *core.Config) { c.ConfigText = text }
}

// WithWindowSize sets the Data Store sliding-window capacity in
// packets.
func WithWindowSize(n int) Option {
	return func(c *core.Config) { c.WindowSize = n }
}

// WithAsyncEvents takes dispatch off the capture goroutine: captures go
// through an ingest ring to a worker instead of being dispatched inside
// HandleCapture, and that worker runs the modules and every OnAlert,
// OnKnowledge and OnFlowRecord callback — call DrainIngest (or Close)
// before reading alerts or counters. The ring is the node's only queue:
// it drops the newest capture when full unless WithIngestBlocking is
// set, and IngestStats accounts for every capture. The default in-line
// mode is deterministic.
func WithAsyncEvents() Option {
	return func(c *core.Config) { c.Async = true }
}

// WithoutKnowledge disables knowledge-driven adaptation: all installed
// modules stay active at all times and fall back to naive techniques.
// This is the paper's "traditional IDS" baseline; it exists in the
// public API for comparison studies.
func WithoutKnowledge() Option {
	return func(c *core.Config) { c.KnowledgeDriven = false }
}

// WithoutDefaultModules skips installing the built-in module library;
// install modules explicitly with InstallModule (or via WithConfig).
func WithoutDefaultModules() Option {
	return func(c *core.Config) { c.InstallAll = false }
}

// WithStateDir enables durable state in the given directory: the node
// recovers its Knowledge Base from a previous run at startup (warm
// restart), logs every accepted knowledge mutation, fsyncs the log at
// every sync point (WithPersistInterval), and at Close — or sooner,
// once the log has grown — compacts it into a crash-safe snapshot. The
// directory holds knowledge only: Recent starts empty after a restart.
// A corrupt snapshot or a torn log degrades gracefully — a truncated or
// cold start, never a failure.
func WithStateDir(dir string) Option {
	return func(c *core.Config) { c.StateDir = dir }
}

// WithPersistInterval sets the time between durable-state sync points
// on the capture clock (default 30s of observed traffic time): the most
// a power cut can lose, and never an earlier record. Only
// meaningful together with WithStateDir.
func WithPersistInterval(d time.Duration) Option {
	return func(c *core.Config) { c.PersistInterval = d }
}

// WithShards selects the ingestion parallelism. n <= 1 is one shard,
// dispatched in line by default (deterministic: HandleCapture returns
// only after every module saw the packet). n > 1 runs min(n, 3) shards
// — each with its own ring buffer, worker, Data Store window, flow
// table with its trackers, and module instances — and a shard owns
// whole media: 802.15.4 on the first, WiFi and wired on the second, BLE
// on the third (on the first when n == 2). A medium's detector state
// and capture order stay on its shard, so a node that overhears two
// media gets two busy workers and one that overhears one gets one.
// HandleCapture then only enqueues; call DrainIngest (or Close) before
// reading alerts or counters after a replay. Only the first shard's
// window is logged (SetLog).
func WithShards(n int) Option {
	return func(c *core.Config) { c.Shards = n }
}

// WithIngestBlocking selects lossless ingestion backpressure: a full
// shard ring makes HandleCapture spin until space frees instead of
// dropping the packet. The default drop-newest policy matches a
// passive IDS (never block capture); blocking mode is for offline
// replay and benchmarks where every packet must be observed. Honoured
// whenever the node has an ingest ring: WithShards(n > 1) or
// WithAsyncEvents.
func WithIngestBlocking() Option {
	return func(c *core.Config) { c.IngestBlock = true }
}

// WithIngestMaxSkew bounds, in capture time, how far the ingestion
// feed may run ahead of the slowest shard that still has queued work:
// one medium's shard against another's. An accelerated replay of a
// multi-medium trace can otherwise hand one shard worker its whole
// medium before another is scheduled, so knowledge one medium's
// traffic yields (and the module activations it drives) lags entire
// attack episodes behind the racing shard. Live capture does not need
// it — arrival time tracks capture time, so skew is physically bounded
// by queue depth. Only meaningful with WithShards(n > 1) and
// WithIngestBlocking; 0 disables pacing.
func WithIngestMaxSkew(d time.Duration) Option {
	return func(c *core.Config) { c.IngestMaxSkew = d }
}

// Node is one Kalis IDS node.
type Node struct {
	inner *core.Kalis
}

// New builds a Kalis node. By default it is knowledge-driven, installs
// the full built-in module library (three sensing modules and twelve
// detection modules), and delivers events synchronously.
func New(opts ...Option) (*Node, error) {
	cfg := core.Config{
		NodeID:          "K1",
		KnowledgeDriven: true,
		InstallAll:      true,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	inner, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Node{inner: inner}, nil
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.inner.ID() }

// HandleCapture feeds one overheard frame into the node. Wire it to a
// live capture source or to trace replay. Decoded captures carry their
// identity handles; one built by hand needs c.Identify() first, or the
// node panics rather than mix its identities' state.
func (n *Node) HandleCapture(c *Captured) { n.inner.HandleCapture(c) }

// DrainIngest blocks until every packet the ingest rings accepted so
// far has been dispatched to the modules. A no-op on nodes that
// dispatch in line (no WithShards(n > 1), no WithAsyncEvents).
func (n *Node) DrainIngest() { n.inner.DrainIngest() }

// IngestStats returns the ingest rings' packet accounting (the zero
// value on nodes that dispatch in line).
func (n *Node) IngestStats() IngestStats { return n.inner.IngestStats() }

// Shards returns the node's ingestion shard count (1 when unsharded).
func (n *Node) Shards() int { return n.inner.Shards() }

// OnAlert registers a consumer for detection events. Consumers run
// synchronously, in registration order, on the goroutine that raised
// the alert: the HandleCapture caller by default, the ring worker with
// WithAsyncEvents. On sharded nodes that is the shard workers (possibly
// concurrently); synchronize any shared state they touch. A consumer
// runs inside the node's dispatch and must not call HandleCapture on
// the same node. Nothing is delivered once Close has returned.
func (n *Node) OnAlert(fn func(Alert)) { n.inner.OnAlert(fn) }

// OnKnowledge registers a consumer for Knowledge Base changes.
func (n *Node) OnKnowledge(fn func(Knowgget)) { n.inner.OnKnowledge(fn) }

// Alerts returns every alert collected so far.
func (n *Node) Alerts() []Alert { return n.inner.Alerts() }

// ActiveModules returns the names of the currently active modules —
// the observable face of knowledge-driven adaptation.
func (n *Node) ActiveModules() []string { return n.inner.ActiveModules() }

// QuarantinedModules returns the modules the supervisor currently
// withholds from dispatch: panicked modules waiting out their backoff.
// The node keeps observing with the remaining modules — graceful
// degradation instead of a crash. A slow module is never withheld.
func (n *Node) QuarantinedModules() []string { return n.inner.QuarantinedModules() }

// ModuleHealth reports every installed module's activation and
// supervision state: "inactive", "healthy", "quarantined" or "probing"
// (post-quarantine probation).
func (n *Node) ModuleHealth() map[string]string { return n.inner.ModuleHealth() }

// Knowledge returns a snapshot of the Knowledge Base, sorted by key.
func (n *Node) Knowledge() []Knowgget { return n.inner.KB().Snapshot() }

// PutKnowledge stores an a-priori knowgget, as a configuration file's
// knowggets section would.
func (n *Node) PutKnowledge(label, entity, value string) {
	n.inner.KB().PutStatic(label, entity, value)
}

// InstallModule instantiates a module from the registry by name and
// installs it with the given parameters.
func (n *Node) InstallModule(name string, params map[string]string) error {
	return n.inner.Install(name, params)
}

// RegisterModule adds a custom module factory under the given name,
// making it available to configuration files and InstallModule —
// Kalis' extensibility mechanism ("new detection capabilities could be
// added as soon as new communication interfaces were available").
func (n *Node) RegisterModule(name string, factory func(params map[string]string) (Module, error)) {
	n.inner.Registry().Register(name, factory)
}

// OnFlowRecord registers a callback invoked for every flow exported
// from the flow table (idle/active timeout, capacity eviction, or
// the flush Close performs), on the goroutine that exported the flow;
// every record is delivered.
func (n *Node) OnFlowRecord(fn func(FlowRecord)) { n.inner.OnFlowRecord(fn) }

// SetLog writes all observed traffic to w in the Kalis trace format
// (with WithShards(n > 1), the first shard's media only: 802.15.4, and
// BLE when n == 2).
func (n *Node) SetLog(w io.Writer) { n.inner.SetLog(w) }

// Recent returns up to count of the most recently observed frames,
// oldest first — the Data Store's sliding window (§IV-B2; every
// shard's, merged by capture time), typically pulled by an operator to
// analyze the traffic around an incident. count <= 0 returns the whole
// window. The window keeps frames as trace records, so each call
// decodes them afresh: the frames returned are the caller's own. It
// holds frames observed since the node started: a warm restart from a
// state dir brings knowledge back, not traffic.
func (n *Node) Recent(count int) []*Captured { return n.inner.Recent(count) }

// ReplayTrace feeds a recorded trace through the node, transparently
// to the modules. It returns the number of frames replayed and skipped
// (undecodable). The trace is streamed a record at a time, so memory
// scales with the Data Store window, not with the file. A record that
// does not parse — a torn tail, a corrupt length — ends the replay:
// every frame before it has been handled, and their counts come back
// with the error.
func (n *Node) ReplayTrace(r io.Reader) (replayed, skipped int, err error) {
	tr := trace.NewReader(r)
	for {
		rec, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return replayed, skipped, nil
		}
		if err != nil {
			return replayed, skipped, fmt.Errorf("kalis: replay: %w", err)
		}
		c, err := rec.Decode()
		if err != nil {
			skipped++
			continue
		}
		replayed++
		n.HandleCapture(c)
	}
}

// EnableCollectiveUDP turns on collective knowledge management over
// UDP: the node beacons its presence to the given discovery addresses
// and synchronizes collective knowggets with discovered peers, AES-GCM
// encrypted with the pre-shared passphrase.
func (n *Node) EnableCollectiveUDP(listenAddr string, discoveryAddrs []string, passphrase string) error {
	t, err := collective.NewUDPTransport(listenAddr, discoveryAddrs)
	if err != nil {
		return err
	}
	return n.inner.EnableCollective(t, passphrase)
}

// CollectivePeers returns the discovered peer Kalis node IDs.
func (n *Node) CollectivePeers() []string {
	if c := n.inner.Collective(); c != nil {
		return c.Peers()
	}
	return nil
}

// BeaconNow broadcasts one collective-discovery beacon immediately
// (and, in gossip mode, runs the anti-entropy round that rides it).
func (n *Node) BeaconNow() {
	if c := n.inner.Collective(); c != nil {
		c.Beacon()
	}
}

// GossipNow runs one collective anti-entropy gossip round immediately:
// flush buffered local updates and exchange digests with up to the
// fan-out cap of random peers.
func (n *Node) GossipNow() {
	if c := n.inner.Collective(); c != nil {
		c.Gossip()
	}
}

// NewFirewall creates a smart firewall fed by this node's alerts —
// the §V smart-router deployment. Frames can then be filtered with
// Firewall.Filter.
func (n *Node) NewFirewall(minConfidence float64) *Firewall {
	fw := firewall.New(0, minConfidence)
	tel := n.inner.Telemetry()
	fw.SetMetrics(firewall.Metrics{
		Passed:    tel.Counter("kalis_firewall_passed_total", "Frames allowed through the smart firewall."),
		Dropped:   tel.Counter("kalis_firewall_dropped_total", "Frames blocked by the smart firewall."),
		BlockList: tel.Gauge("kalis_firewall_blocklist", "Suspects currently on the firewall block list."),
	})
	n.OnAlert(fw.HandleAlert)
	return fw
}

// NewResponder creates an automatic-response executor fed by this
// node's alerts (§III: "automatic response actions (such as
// re-transmission of packets, and device isolation)"). Wire its
// Isolate/Block hooks to the deployment before traffic flows.
func (n *Node) NewResponder(policy ResponsePolicy) *Responder {
	r := response.NewResponder(policy)
	n.OnAlert(r.HandleAlert)
	return r
}

// ExportAlerts streams this node's detection events to w as NDJSON for
// SIEM ingestion ("Kalis ... can act as data source for multisource
// security information management (SIEM) systems", §I). The returned
// exporter reports the event count and any write error.
func (n *Node) ExportAlerts(w io.Writer) *siem.Exporter {
	exp := siem.NewExporter(n.ID(), w)
	n.OnAlert(exp.HandleAlert)
	return exp
}

// Telemetry returns the node's always-on runtime-metrics registry
// (packet counters, per-module latency histograms, queue depths, ...).
// It is distinct from internal/metrics, which scores offline
// experiments after a replay finishes.
func (n *Node) Telemetry() *telemetry.Registry { return n.inner.Telemetry() }

// TelemetryHandler returns the admin endpoint for this node:
// Prometheus exposition on /metrics, a JSON snapshot on /metrics.json,
// liveness on /healthz, and Go profiling under /debug/pprof/. Mount it
// on any HTTP server, or use ServeTelemetry to start a dedicated one.
func (n *Node) TelemetryHandler() http.Handler {
	return telemetry.NewAdminMux(n.inner.Telemetry())
}

// ServeTelemetry starts the admin endpoint on addr (port :0 picks a
// free port; read it back with Addr on the returned server). Close the
// returned server to stop it.
func (n *Node) ServeTelemetry(addr string) (*telemetry.AdminServer, error) {
	return telemetry.ServeAdmin(addr, n.inner.Telemetry())
}

// SuggestConfig distills the node's current knowledge into a fixed
// configuration file in the Fig. 6 grammar — the paper's compile-time
// deployment flow for constrained devices (§VIII). Feed the result to
// a new node via WithConfig (together with WithoutDefaultModules) to
// run exactly the module set this environment needs, skipping
// discovery.
func (n *Node) SuggestConfig() string { return n.inner.SuggestConfig() }

// RecoveryOutcome reports how the node's durable state recovered at
// startup: "warm" (snapshot and journal verified), "truncated" (a torn
// journal tail was dropped, the verified prefix applied) or "cold"
// (no usable prior state). Empty when the node runs without a state
// directory.
func (n *Node) RecoveryOutcome() string {
	if p := n.inner.Persistence(); p != nil {
		return string(p.Outcome())
	}
	return ""
}

// Close shuts the node down: draining the ingest rings, flushing the
// remaining flows to OnFlowRecord, ending event delivery, flushing and
// closing the traffic log, taking the final durable-state snapshot,
// and closing the collective layer.
func (n *Node) Close() error { return n.inner.Close() }
