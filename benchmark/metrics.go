package main

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// unitOf is the unit the table gives the named metric. A name the table
// lacks is a typo in this package, which the smoke test catches.
func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("metric " + name + " is in neither table")
}

// endToEnd is the ledger a user of a Kalis gateway would read: what it
// sustains, how long a frame waits for a verdict, what that costs in
// CPU and RAM (the paper's Table II columns), whether it still detects
// (the paper's metrics i and ii) and how fast (§VI-C), and what the
// collective layer costs the fleet. BENCHMARK.json repeats this table;
// TestBenchmarkJSONMatches keeps the two in step.
//
// The timings of the packet path and setup_s are not medians
// over passes but the work with every short lap, and every frame, at
// the fastest of its repetitions (see laps): the sandbox has a slow
// speed that comes and goes, and only the fast one repeats. What the
// garbage collector costs drops out of such a figure; allocs_per_frame
// and bytes_per_frame, which repeat to a part in a thousand, gate it.
// The wall time of a simulated gossip round is not here at all: it is
// the simulator's cost, not a gateway's, and it cannot be cut into
// laps from outside fleet.Run (per layer: fleet.run_ms).
//
// The bounds are about three times the widest interquartile range
// seen over ten runs on ten seeds (README.md, "Steadiness"): a bound
// inside the noise rejects changes at random.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"frames_per_s", "1/s", higher, 0.25},
	{"frame_us_p50", "us", lower, 0.25},
	// p99.5, not p99: on wifi-flood one frame in 95 raises an alert, so
	// the 99th percentile falls on the cliff between ordinary and
	// alert-raising frames; p99.5 lies inside the slow population (on
	// wsn-durable, inside the snapshot frames).
	{"frame_us_p995", "us", lower, 0.25},
	{"cpu_ns_per_frame", "ns", lower, 0.25},
	{"allocs_per_frame", "count", lower, 0.03},
	{"bytes_per_frame", "B", lower, 0.03},
	{"heap_live_mb", "MB", lower, 0.10},
	{"detection_rate", "ratio", higher, 0.01},
	{"alert_accuracy", "ratio", higher, 0.01},
	// Seconds on the capture clock of the recorded trace, not wall time:
	// the same seed gives the same value on the synchronous path.
	{"detect_delay_s_mean", "sim_s", lower, 0.15},
	{"gossip_bytes_per_node", "B", lower, 0.05},
	{"gossip_rounds", "count", lower, 0.10},
}

// moduleNames are the sixteen built-in modules (three sensing, thirteen
// detection); each gets a module.busy_ns.<name> per-layer series.
var moduleNames = []string{
	"TopologyDiscoveryModule", "TrafficStatsModule", "MobilityAwarenessModule",
	"ICMPFloodModule", "SmurfModule", "SYNFloodModule",
	"SelectiveForwardingModule", "BlackholeModule",
	"ReplicationStaticModule", "ReplicationMobileModule",
	"SybilModule", "SinkholeModule", "WormholeModule", "DataAlterationModule",
	"TrafficAnomalyModule", "HealthCorrModule",
}

// perLayer lists the traced run's metrics, grouped by the repo's own
// layers. A layer a workload bypasses reports 0 — that zero is the
// bypass evidence the interaction map in README.md predicts.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "trace.read_ns", Unit: "ns", Better: lower},
		{Name: "trace.records", Unit: "count", Better: higher},
		{Name: "proto.decode_ns", Unit: "ns", Better: lower},
		{Name: "proto.decode_allocs", Unit: "count", Better: lower},
		{Name: "proto.decode_share", Unit: "ratio", Better: lower},
		{Name: "proto.decode_errors", Unit: "count", Better: lower},
		{Name: "ingest.enqueue_ns", Unit: "ns", Better: lower},
		{Name: "ingest.handoff_ns", Unit: "ns", Better: lower},
		{Name: "ingest.batch_mean", Unit: "count", Better: higher},
		{Name: "ingest.depth_max", Unit: "count", Better: lower},
		{Name: "ingest.dropped", Unit: "count", Better: lower},
		{Name: "flow.update_ns", Unit: "ns", Better: lower},
		{Name: "flow.active", Unit: "count", Better: lower},
		{Name: "flow.expirations", Unit: "count", Better: lower},
		{Name: "flow.evictions", Unit: "count", Better: lower},
		{Name: "datastore.append_ns", Unit: "ns", Better: lower},
		{Name: "datastore.window_occupancy", Unit: "count", Better: lower},
		{Name: "module.handle_ns", Unit: "ns", Better: lower},
		{Name: "module.active", Unit: "count", Better: lower},
		{Name: "module.invocations_per_frame", Unit: "count", Better: lower},
		{Name: "module.busy_ns", Unit: "ns", Better: lower},
		{Name: "core.dispatch_self_ns", Unit: "ns", Better: lower},
		{Name: "knowledge.knowggets", Unit: "count", Better: lower},
		{Name: "knowledge.changes_per_kframe", Unit: "count", Better: lower},
		{Name: "event.publishes_per_frame", Unit: "count", Better: lower},
		{Name: "event.drops", Unit: "count", Better: lower},
		{Name: "alerts.per_kframe", Unit: "count", Better: higher},
		{Name: "persist.snapshots", Unit: "count", Better: lower},
		{Name: "persist.snapshot_bytes", Unit: "B", Better: lower},
		{Name: "persist.journal_bytes", Unit: "B", Better: lower},
		{Name: "persist.close_ms", Unit: "ms", Better: lower},
		{Name: "persist.recover_ms", Unit: "ms", Better: lower},
		{Name: "persist.recovered_knowggets", Unit: "count", Better: higher},
		{Name: "collective.digests", Unit: "count", Better: lower},
		{Name: "collective.deltas", Unit: "count", Better: lower},
		{Name: "collective.entries", Unit: "count", Better: lower},
		{Name: "collective.bytes", Unit: "B", Better: lower},
		{Name: "fleet.run_ms", Unit: "ms", Better: lower},
		{Name: "fleet.converged_nodes", Unit: "count", Better: higher},
		{Name: "runtime.frame_us_p999", Unit: "us", Better: lower},
		{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
		{Name: "runtime.heap_peak_mb", Unit: "MB", Better: lower},
		{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	}
	for _, m := range moduleNames {
		defs = append(defs, metricDef{Name: "module.busy_ns." + m, Unit: "ns", Better: lower})
	}
	return defs
}
