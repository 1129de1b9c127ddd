package main

// nodeCounts are the always-on telemetry counters the per-layer metrics
// are deltas of, summed over the workload's nodes.
type nodeCounts struct {
	ModuleBusyS     map[string]float64 // kalis_module_packet_seconds sum, by module
	ModuleCalls     float64            // … and its observation count, all modules
	Publishes       float64            // kalis_bus_publishes_total, all topics
	KnowledgeEvents float64            // … the knowledge topic alone
	BusDrops        float64
	Alerts          float64
	Expirations     float64
	Evictions       float64
	Snapshots       float64
	Batches         float64 // kalis_ingest_batch_size observations
	BatchedFrames   float64 // … and their sum (1 packet == 1 s)
}

func (s *packetSeg) counts() nodeCounts {
	c := nodeCounts{ModuleBusyS: map[string]float64{}}
	for _, node := range s.nodes {
		t := telSnap(node.Telemetry().Snapshot())
		for name, h := range t.histChildren("kalis_module_packet_seconds") {
			c.ModuleBusyS[name] += h.SumSeconds
			c.ModuleCalls += float64(h.Count)
		}
		c.Publishes += t.scalar("kalis_bus_publishes_total")
		c.KnowledgeEvents += t.child("kalis_bus_publishes_total", "knowledge")
		c.BusDrops += t.scalar("kalis_bus_drops_total")
		c.Alerts += t.scalar("kalis_alerts_total")
		c.Expirations += t.scalar("kalis_flow_expirations_total")
		c.Evictions += t.scalar("kalis_flow_evictions_total")
		c.Snapshots += t.scalar("kalis_persist_snapshot_total")
		n, sum := t.hist("kalis_ingest_batch_size")
		c.Batches += n
		c.BatchedFrames += sum
	}
	return c
}

func (c nodeCounts) sub(o nodeCounts) nodeCounts {
	d := c
	d.ModuleBusyS = map[string]float64{}
	for name, v := range c.ModuleBusyS {
		d.ModuleBusyS[name] = v - o.ModuleBusyS[name]
	}
	d.ModuleCalls -= o.ModuleCalls
	d.Publishes -= o.Publishes
	d.KnowledgeEvents -= o.KnowledgeEvents
	d.BusDrops -= o.BusDrops
	d.Alerts -= o.Alerts
	d.Expirations -= o.Expirations
	d.Evictions -= o.Evictions
	d.Snapshots -= o.Snapshots
	d.Batches -= o.Batches
	d.BatchedFrames -= o.BatchedFrames
	return d
}

// nodeGauges are point-in-time readings at the end of the timed passes,
// summed over the workload's nodes (ActiveModules is their mean). They
// also capture each node's ingest accounting for the correctness check.
type nodeGauges struct {
	ActiveModules, FlowsActive, WindowOccupancy, Knowggets, JournalBytes, Dropped float64
}

func (s *packetSeg) gauges() nodeGauges {
	var g nodeGauges
	s.ingestStats = s.ingestStats[:0]
	for _, node := range s.nodes {
		t := telSnap(node.Telemetry().Snapshot())
		g.ActiveModules += float64(len(node.ActiveModules())) / float64(len(s.nodes))
		g.FlowsActive += t.scalar("kalis_flow_active")
		g.WindowOccupancy += t.scalar("kalis_store_window_occupancy")
		g.Knowggets += float64(len(node.Knowledge()))
		g.JournalBytes += t.scalar("kalis_persist_journal_bytes")
		st := node.IngestStats()
		g.Dropped += float64(st.Dropped)
		s.ingestStats = append(s.ingestStats, st)
	}
	return g
}

// layerExtras are per-layer figures measured outside the node.
type layerExtras struct {
	DecodeAllocs, GCCycles, GCPauseMs, HeapPeakMB float64
}

// perLayerStats assembles the traced run's per-layer metrics. Span
// means come from the traced passes, counter deltas from all timed
// passes, trace.overhead_pct from traced against control passes.
func perLayerStats(s *packetSeg, passes []passResult, d nodeCounts, g nodeGauges, ps persistStats, fl *fleetSeg, x layerExtras) map[string]stat {
	var sums layerSums
	frames := 0.0
	var tracedFrameNs, controlFrameNs, p999 []float64
	decodeErrs := 0
	for _, p := range passes {
		frames += float64(p.Frames)
		decodeErrs += p.DecodeErrs
		if p.Traced {
			sums.add(p.Layers)
			real := p.Layers.Read + p.Layers.Decode + p.Layers.Handle
			tracedFrameNs = append(tracedFrameNs, p.Layers.perFrame(real))
		} else {
			controlFrameNs = append(controlFrameNs, float64(p.Wall)/float64(p.Frames))
			p999 = append(p999, p.P999)
		}
	}
	read, decode, handle := sums.perFrame(sums.Read), sums.perFrame(sums.Decode), sums.perFrame(sums.Handle)
	appendNs, update, handoff := sums.perFrame(sums.Append), sums.perFrame(sums.Update), sums.perFrame(sums.Enqueue)
	busy := 0.0
	for _, v := range d.ModuleBusyS {
		busy += v * 1e9 / frames
	}

	out := map[string]stat{}
	set := func(name string, v float64) {
		out[name] = valueStat(unitOf(perLayer, name), v)
	}
	set("trace.read_ns", read)
	set("trace.records", frames+float64(decodeErrs))
	set("proto.decode_ns", decode)
	set("proto.decode_allocs", x.DecodeAllocs)
	set("proto.decode_share", decode/(read+decode+handle))
	set("proto.decode_errors", float64(decodeErrs))
	set("ingest.handoff_ns", handoff)
	set("ingest.batch_mean", ratio(d.BatchedFrames, d.Batches))
	set("ingest.depth_max", float64(s.depthMax))
	set("ingest.dropped", g.Dropped)
	set("flow.update_ns", update)
	set("flow.active", g.FlowsActive)
	set("flow.expirations", d.Expirations)
	set("flow.evictions", d.Evictions)
	set("datastore.append_ns", appendNs)
	set("datastore.window_occupancy", g.WindowOccupancy)
	set("module.handle_ns", handle)
	set("module.active", g.ActiveModules)
	set("module.invocations_per_frame", d.ModuleCalls/frames)
	set("module.busy_ns", busy)
	for _, m := range moduleNames {
		set("module.busy_ns."+m, d.ModuleBusyS[m]*1e9/frames)
	}
	if s.w.Shards > 1 {
		// HandleCapture only enqueues on a sharded node: its span is the
		// producer side of the ring, and dispatch happens on the shard
		// workers where no outside span can reach.
		set("ingest.enqueue_ns", handle)
		set("core.dispatch_self_ns", 0)
	} else {
		set("ingest.enqueue_ns", 0)
		set("core.dispatch_self_ns", handle-appendNs-update-busy)
	}
	set("knowledge.knowggets", g.Knowggets)
	set("knowledge.changes_per_kframe", 1000*d.KnowledgeEvents/frames)
	set("event.publishes_per_frame", d.Publishes/frames)
	set("event.drops", d.BusDrops)
	set("alerts.per_kframe", 1000*d.Alerts/frames)
	set("persist.snapshots", d.Snapshots)
	set("persist.snapshot_bytes", ps.SnapshotBytes)
	set("persist.journal_bytes", g.JournalBytes)
	set("persist.close_ms", ps.CloseMs)
	set("persist.recover_ms", ps.RecoverMs)
	set("persist.recovered_knowggets", ps.RecoveredKnowggets)
	set("collective.digests", median(fl.each(func(r fleetRep) float64 { return float64(r.Result.Digests) })))
	set("collective.deltas", median(fl.each(func(r fleetRep) float64 { return float64(r.Result.Deltas) })))
	set("collective.entries", median(fl.each(func(r fleetRep) float64 { return float64(r.Result.Entries) })))
	set("collective.bytes", median(fl.each(func(r fleetRep) float64 { return float64(r.Result.BytesSent) })))
	set("fleet.run_ms", median(fl.each(func(r fleetRep) float64 { return float64(r.Wall) / 1e6 })))
	set("fleet.converged_nodes", median(fl.each(func(r fleetRep) float64 { return float64(r.Result.ConvergedNodes) })))
	set("runtime.frame_us_p999", median(p999))
	set("runtime.gc_cycles", x.GCCycles)
	set("runtime.gc_pause_ms", x.GCPauseMs)
	set("runtime.heap_peak_mb", x.HeapPeakMB)
	set("trace.overhead_pct", 100*(ratio(median(tracedFrameNs), median(controlFrameNs))-1))
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
