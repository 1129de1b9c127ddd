// Package fleet drives the collective gossip layer at fleet scale:
// hundreds to tens of thousands of simulated Kalis nodes on an
// in-memory hub, exchanging anti-entropy digests over a sparse
// ring-plus-chords overlay while producer nodes churn collective
// knowggets. It measures convergence (rounds until every node holds
// every producer's final knowledge) and bytes on the wire, optionally
// under injected link loss and network partitions — the experiment
// behind the "Fleet scaling" tables in EXPERIMENTS.md.
package fleet

import (
	"fmt"
	mrand "math/rand"
	"strconv"

	"kalis/internal/core/collective"
	"kalis/internal/core/knowledge"
	"kalis/internal/fault"
	"kalis/internal/siem"
	"kalis/internal/telemetry"
)

// Config parameterizes one fleet run.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Producers is how many nodes publish collective knowggets
	// (default: Nodes/64, at least 4, at most 16).
	Producers int
	// Keys is how many distinct collective keys each producer owns
	// (default 4).
	Keys int
	// UpdatesPerKey is the churn factor: how many times each key is
	// rewritten over the run (default 30). Only each key's final value
	// must reach the fleet — the gap between updates published and
	// values that must arrive is exactly what delta gossip exploits.
	UpdatesPerKey int
	// ChurnRounds spreads the updates over this many gossip ticks
	// (default 3). Knowledge churns faster than gossip ticks — traffic
	// statistics update per second, gossip per beacon interval — so
	// several rewrites of a key coalesce into one dirty entry per tick.
	ChurnRounds int
	// Degree is each node's overlay peer count, ring + random chords
	// (default 6).
	Degree int
	// Fanout caps peers contacted per gossip round (default 3).
	Fanout int
	// Seed feeds topology, fan-out and fault randomness.
	Seed int64
	// MaxRounds bounds the run (default: generous multiple of log2 N).
	MaxRounds int
	// LossProb drops each datagram with this probability on every link.
	LossProb float64
	// PartitionRounds splits the fleet in half for that many initial
	// rounds, then heals — the partition drill.
	PartitionRounds int
	// Registry, when set, receives the kalis_collective_* counters
	// (shared by every node in the fleet, so scraped values are fleet
	// totals — the hierarchical aggregation a SIEM would do).
	Registry *telemetry.Registry
}

// Sample is one point of the convergence curve.
type Sample struct {
	Round     int
	Converged int
	Bytes     uint64
}

// Result summarizes one fleet run.
type Result struct {
	Nodes, Producers, Keys, Updates int
	// Rounds is how many gossip rounds ran before full convergence (or
	// MaxRounds if the fleet never converged).
	Rounds    int
	Converged bool
	// ConvergedNodes counts nodes holding every final value at the end.
	ConvergedNodes int
	// BytesSent is total sealed bytes handed to transports fleet-wide.
	BytesSent uint64
	// Entries counts knowgget entries shipped in delta sections.
	Entries int
	// Digests and Deltas count protocol messages sent fleet-wide.
	Digests, Deltas int
	// Curve samples converged-node count and cumulative bytes per round.
	Curve []Sample
	// Fleet is the SIEM-side aggregation over final node digests.
	Fleet siem.FleetSummary
}

func (c *Config) fill() {
	if c.Producers == 0 {
		c.Producers = max(4, min(16, c.Nodes/64))
	}
	if c.Producers > c.Nodes {
		c.Producers = c.Nodes
	}
	if c.Keys == 0 {
		c.Keys = 4
	}
	if c.UpdatesPerKey == 0 {
		c.UpdatesPerKey = 30
	}
	if c.ChurnRounds == 0 {
		c.ChurnRounds = 3
	}
	if c.ChurnRounds > c.UpdatesPerKey {
		c.ChurnRounds = c.UpdatesPerKey
	}
	if c.Degree == 0 {
		c.Degree = 6
	}
	if c.Fanout == 0 {
		c.Fanout = 3
	}
	if c.MaxRounds == 0 {
		log2 := 0
		for n := c.Nodes; n > 1; n >>= 1 {
			log2++
		}
		c.MaxRounds = c.ChurnRounds + 10*log2 + 2*c.PartitionRounds + 20
	}
}

// Run executes one fleet simulation.
func Run(cfg Config) (*Result, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("fleet: need at least 2 nodes, got %d", cfg.Nodes)
	}
	cfg.fill()
	rng := mrand.New(mrand.NewSource(cfg.Seed + 1))

	hub := collective.NewHub()
	kbs := make([]*knowledge.Base, cfg.Nodes)
	nodes := make([]*collective.Node, cfg.Nodes)
	var fts []*fault.Transport
	faulty := cfg.LossProb > 0 || cfg.PartitionRounds > 0
	var inj *fault.Injector
	if faulty {
		inj = fault.New(cfg.Seed + 2)
		fts = make([]*fault.Transport, cfg.Nodes)
	}
	var met collective.Metrics
	if cfg.Registry != nil {
		met = fleetMetrics(cfg.Registry)
	}
	for i := range nodes {
		kbs[i] = knowledge.NewBase(nodeID(i))
		var tr collective.Transport = hub.Endpoint(nodeAddr(i))
		if faulty {
			fts[i] = inj.WrapTransport(tr, fault.LinkFaults{Drop: cfg.LossProb})
			tr = fts[i]
		}
		n, err := collective.NewNode(kbs[i], tr, "fleet-secret")
		if err != nil {
			return nil, err
		}
		n.SetRetry(0, 0)
		n.SetMaxPeers(0)
		n.SetFanout(cfg.Fanout)
		n.SetGossipSeed(cfg.Seed + int64(i)*7919)
		if cfg.Registry != nil {
			n.SetMetrics(met)
		}
		nodes[i] = n
	}

	// Overlay: a sparse ring-plus-chords graph (epidemic dissemination
	// needs only connectivity plus a few shortcuts).
	topo := make([][]int, cfg.Nodes)
	addEdge := func(a, b int) {
		topo[a] = append(topo[a], b)
		topo[b] = append(topo[b], a)
		nodes[a].AddPeer(nodeID(b), nodeAddr(b))
		nodes[b].AddPeer(nodeID(a), nodeAddr(a))
	}
	seen := make(map[[2]int]bool)
	edge := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for i := 0; i < cfg.Nodes; i++ {
		j := (i + 1) % cfg.Nodes
		if e := edge(i, j); !seen[e] {
			seen[e] = true
			addEdge(i, j)
		}
	}
	for i := 0; i < cfg.Nodes; i++ {
		for tries := 0; len(topo[i]) < cfg.Degree && tries < 100; tries++ {
			j := rng.Intn(cfg.Nodes)
			if j == i || seen[edge(i, j)] || len(topo[j]) >= cfg.Degree+2 {
				continue
			}
			seen[edge(i, j)] = true
			addEdge(i, j)
		}
	}

	if cfg.PartitionRounds > 0 {
		partition(cfg, fts, topo)
	}

	// Workload + rounds. Each churn burst rewrites every producer key,
	// then one gossip round runs fleet-wide; after the churn ends,
	// rounds continue until convergence or the round budget runs out.
	res := &Result{Nodes: cfg.Nodes, Producers: cfg.Producers, Keys: cfg.Keys, Updates: cfg.UpdatesPerKey}
	final := make(map[string]string, cfg.Producers*cfg.Keys)
	written := 0 // updates issued so far, per key
	round := 0
	for round < cfg.MaxRounds {
		round++
		if round <= cfg.ChurnRounds {
			// This tick's burst: an equal share of the per-key update
			// budget (earlier bursts absorb the remainder).
			burst := cfg.UpdatesPerKey / cfg.ChurnRounds
			if round <= cfg.UpdatesPerKey%cfg.ChurnRounds {
				burst++
			}
			for u := 0; u < burst; u++ {
				written++
				v := strconv.Itoa(written)
				for p := 0; p < cfg.Producers; p++ {
					for k := 0; k < cfg.Keys; k++ {
						label := "FleetKey" + strconv.Itoa(k)
						kbs[p].PutCollective(label, "", v)
						final[nodeID(p)+"$"+label] = v
					}
				}
			}
		}
		if cfg.PartitionRounds > 0 && round == cfg.PartitionRounds+1 {
			heal(fts)
		}
		for _, n := range nodes {
			n.Gossip()
		}
		conv := converged(kbs, final)
		res.Curve = append(res.Curve, Sample{Round: round, Converged: conv, Bytes: bytesSent(nodes)})
		if conv == cfg.Nodes && round >= cfg.ChurnRounds {
			break
		}
	}

	res.Rounds = round
	res.ConvergedNodes = converged(kbs, final)
	res.Converged = res.ConvergedNodes == cfg.Nodes
	res.BytesSent = bytesSent(nodes)
	for _, n := range nodes {
		sent, _, _ := n.Stats()
		res.Entries += sent
		dg, _, dl, _ := n.GossipStats()
		res.Digests += dg
		res.Deltas += dl
	}
	agg := siem.NewFleetAggregator()
	for i, kb := range kbs {
		agg.ReportDigest(nodeID(i), kb.Digest())
	}
	res.Fleet = agg.Summary()
	return res, nil
}

// partition blocks every overlay edge crossing the half/half cut, on
// both wrapped sides.
func partition(cfg Config, fts []*fault.Transport, topo [][]int) {
	half := cfg.Nodes / 2
	side := func(i int) bool { return i < half }
	for i, peers := range topo {
		for _, j := range peers {
			if side(i) != side(j) {
				fts[i].Partition(nodeAddr(j))
			}
		}
	}
}

func heal(fts []*fault.Transport) {
	for _, ft := range fts {
		ft.Heal()
	}
}

// converged counts nodes holding the final value of every producer key.
func converged(kbs []*knowledge.Base, final map[string]string) int {
	count := 0
	for _, kb := range kbs {
		ok := true
		for key, want := range final {
			if got, present := kb.Get(key); !present || got.Value != want {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

func bytesSent(nodes []*collective.Node) uint64 {
	var total uint64
	for _, n := range nodes {
		sent, _ := n.WireStats()
		total += sent
	}
	return total
}

func nodeID(i int) string   { return fmt.Sprintf("N%05d", i) }
func nodeAddr(i int) string { return fmt.Sprintf("fleet:%05d", i) }

// fleetMetrics registers the kalis_collective_* counter family shared
// by every node in the fleet, so a scrape reads fleet totals.
func fleetMetrics(reg *telemetry.Registry) collective.Metrics {
	return collective.Metrics{
		SyncSent:        reg.Counter("kalis_collective_sync_sent_total", "knowgget entries sent in delta sections, fleet-wide"),
		SyncReceived:    reg.Counter("kalis_collective_sync_received_total", "knowgget entries accepted from peers, fleet-wide"),
		SyncRejected:    reg.Counter("kalis_collective_sync_rejected_total", "knowgget entries refused (stale version, ownership), fleet-wide"),
		Peers:           reg.Gauge("kalis_collective_peers", "peer-table size (last reporting node)"),
		Evictions:       reg.Counter("kalis_collective_peer_evictions_total", "peers evicted fleet-wide"),
		SendRetries:     reg.Counter("kalis_collective_send_retries_total", "datagram retransmissions fleet-wide"),
		Malformed:       reg.Counter("kalis_collective_malformed_total", "undecryptable or unparseable datagrams fleet-wide"),
		DigestsSent:     reg.Counter("kalis_collective_digests_sent_total", "gossip digests sent fleet-wide"),
		DigestsReceived: reg.Counter("kalis_collective_digests_received_total", "gossip digests received fleet-wide"),
		DeltasSent:      reg.Counter("kalis_collective_deltas_sent_total", "delta messages sent fleet-wide"),
		DeltasReceived:  reg.Counter("kalis_collective_deltas_received_total", "delta messages received fleet-wide"),
		BytesSent:       reg.Counter("kalis_collective_bytes_sent_total", "sealed bytes sent fleet-wide"),
		BytesReceived:   reg.Counter("kalis_collective_bytes_received_total", "sealed bytes received fleet-wide"),
	}
}
