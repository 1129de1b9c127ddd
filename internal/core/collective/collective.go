// Package collective implements Kalis' collective-knowledge layer
// (§IV-B3, §V): cooperating Kalis nodes share collective knowggets
// over an encrypted channel. The original LAN design — push a full
// snapshot to every beacon-discovered peer and re-push every update to
// the whole peer table — is O(peers × knowggets) bytes per round and
// collapses at fleet scale, so dissemination is epidemic anti-entropy
// instead: each gossip round sends the node's per-creator version
// vector (a compact digest) to a small random subset of peers
// (capped fan-out, default 3), piggybacking the coalesced dirty local
// updates; receivers compare digests against their watermarks and
// exchange only missing deltas. A full snapshot push survives only as
// the first-contact bootstrap when a beacon reveals a new peer.
package collective

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	mrand "math/rand"
	"sort"
	"sync"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/telemetry"
)

// Node is the collective-knowledge manager of one Kalis node: it
// beacons its presence, tracks discovered peers, runs anti-entropy
// gossip rounds over them, and version-checks gossiped knowggets into
// the Knowledge Base.
type Node struct {
	kb        *knowledge.Base
	transport Transport
	aead      cipher.AEAD

	mu    sync.Mutex
	peers map[string]*peerInfo // Kalis node ID → liveness record

	// Gossip state: vv is the per-creator watermark vector ("holds all
	// of that creator's collective state up to this version"), dirty
	// buffers local collective changes between gossip ticks, and
	// flushedVer is the local version covered by the last flush —
	// together they form the watermark-contiguous piggyback section.
	vv         map[string]uint64
	dirty      map[string]knowledge.Knowgget
	flushedVer uint64
	fanout     int
	rng        *mrand.Rand

	// Resilience knobs (see resilience.go). now and sleep are
	// injectable so simulations and tests run on a virtual clock.
	now          func() time.Time
	sleep        func(time.Duration)
	peerTTL      time.Duration
	maxPeers     int
	retries      int
	retryBackoff time.Duration

	// Stats.
	sent, received, rejected      int
	evictions, retried, malformed int
	digestsSent, digestsReceived  int
	deltasSent, deltasReceived    int
	bytesSent, bytesReceived      uint64

	met Metrics

	stop chan struct{}
	done chan struct{}
}

// peerInfo is one discovered peer's record: its transport address and
// when it was last heard from (any authenticated message), driving TTL
// eviction.
type peerInfo struct {
	addr     string
	lastSeen time.Time
}

// Metrics are the collective layer's optional telemetry hooks;
// zero-value fields are skipped (all telemetry types are nil-safe).
type Metrics struct {
	// SyncSent counts knowgget entries sent in delta sections.
	SyncSent *telemetry.Counter
	// SyncReceived counts version-accepted entries applied from peers.
	SyncReceived *telemetry.Counter
	// SyncRejected counts entries refused (stale version, ownership).
	SyncRejected *telemetry.Counter
	// Peers tracks the number of discovered peer Kalis nodes.
	Peers *telemetry.Gauge
	// Evictions counts peers evicted for silence (TTL) or to respect
	// the peer-table bound.
	Evictions *telemetry.Counter
	// SendRetries counts retransmissions after transient Send failures.
	SendRetries *telemetry.Counter
	// Malformed counts datagrams that failed to decrypt or parse —
	// counted, never fatal.
	Malformed *telemetry.Counter
	// DigestsSent / DigestsReceived count gossip digest messages.
	DigestsSent     *telemetry.Counter
	DigestsReceived *telemetry.Counter
	// DeltasSent / DeltasReceived count delta messages exchanged.
	DeltasSent     *telemetry.Counter
	DeltasReceived *telemetry.Counter
	// BytesSent / BytesReceived count sealed wire bytes, the
	// bytes-on-wire series the fleet experiments chart.
	BytesSent     *telemetry.Counter
	BytesReceived *telemetry.Counter
}

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (n *Node) SetMetrics(met Metrics) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.met = met
}

// NewNode creates a collective-knowledge manager. The pre-shared
// passphrase keys the AES-GCM channel ("all communications among the
// nodes are encrypted", §V).
func NewNode(kb *knowledge.Base, t Transport, passphrase string) (*Node, error) {
	key := sha256.Sum256([]byte(passphrase))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("collective: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("collective: gcm: %w", err)
	}
	n := &Node{
		kb:        kb,
		transport: t,
		aead:      aead,
		peers:     make(map[string]*peerInfo),
		vv:        kb.Digest(), // restored state seeds the watermarks
		dirty:     make(map[string]knowledge.Knowgget, 8),
		fanout:    3,
		// Deterministic per-node fan-out selection: the node ID seeds
		// the RNG, so a simulation re-run picks the same peers while
		// distinct nodes still de-correlate.
		rng:   mrand.New(mrand.NewSource(int64(crc32.ChecksumIEEE([]byte(kb.LocalID()))) + 1)),
		now:   time.Now,
		sleep: time.Sleep,
		// Resilience defaults (see resilience.go): evict peers silent
		// for 5 minutes, bound the table at 256 peers, retry transient
		// sends twice with 50ms backoff.
		peerTTL:      5 * time.Minute,
		maxPeers:     256,
		retries:      2,
		retryBackoff: 50 * time.Millisecond,
	}
	t.SetHandler(n.receive)
	kb.SetSync(n.push)
	return n, nil
}

// Beacon broadcasts one discovery advertisement, sweeps the peer table
// for silent peers, and runs one anti-entropy round.
// Call it periodically (a real deployment uses RunBeacon; simulations
// drive it from the virtual clock).
func (n *Node) Beacon() {
	n.sweep()
	data, err := n.seal(encodeWire(&wireMsg{kind: kindBeacon, sender: n.kb.LocalID()}))
	if err != nil {
		return
	}
	n.mu.Lock()
	n.bytesSent += uint64(len(data))
	n.met.BytesSent.Add(uint64(len(data)))
	n.mu.Unlock()
	_ = n.transport.Broadcast(data)
	n.gossipRound()
}

// Gossip runs one anti-entropy round immediately: flush the dirty
// local updates and exchange digests with up to fanout random peers.
func (n *Node) Gossip() { n.gossipRound() }

// SetFanout caps how many random peers each gossip round contacts
// (0 = every peer). The default is 3: epidemic dissemination reaches
// the whole fleet in O(log N) rounds regardless of peer-table size.
func (n *Node) SetFanout(k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fanout = k
}

// SetGossipSeed reseeds the fan-out selection RNG (simulations).
func (n *Node) SetGossipSeed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rng = mrand.New(mrand.NewSource(seed))
}

// AddPeer inserts a peer without waiting for its beacon — static
// membership for simulations and fixed fleet topologies.
func (n *Node) AddPeer(id, addr string) {
	if id == n.kb.LocalID() {
		return
	}
	n.mu.Lock()
	n.admitLocked(id, addr)
	n.met.Peers.Set(int64(len(n.peers)))
	count := len(n.peers)
	n.mu.Unlock()
	n.kb.PutInt("Peers", count)
}

// RunBeacon starts periodic beaconing in a background goroutine; call
// StopBeacon to stop and join it.
func (n *Node) RunBeacon(interval time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stop != nil {
		return
	}
	n.stop = make(chan struct{})
	n.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				n.Beacon()
			case <-stop:
				return
			}
		}
	}(n.stop, n.done)
}

// StopBeacon stops the beaconing goroutine and waits for it to exit.
func (n *Node) StopBeacon() {
	n.mu.Lock()
	stop, done := n.stop, n.done
	n.stop, n.done = nil, nil
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Peers returns the discovered peer node IDs, sorted.
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.peers))
	for id := range n.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stats returns entry counters: knowggets sent, accepted and rejected.
func (n *Node) Stats() (sent, received, rejected int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.received, n.rejected
}

// GossipStats returns protocol message counters: gossip digests and
// delta messages sent and received.
func (n *Node) GossipStats() (digestsSent, digestsReceived, deltasSent, deltasReceived int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.digestsSent, n.digestsReceived, n.deltasSent, n.deltasReceived
}

// WireStats returns sealed bytes sent and received on the wire.
func (n *Node) WireStats() (bytesSent, bytesReceived uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bytesSent, n.bytesReceived
}

// VersionVector returns a copy of the node's per-creator watermarks.
func (n *Node) VersionVector() map[string]uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]uint64, len(n.vv))
	for c, v := range n.vv {
		out[c] = v
	}
	return out
}

// push is installed as the Knowledge Base's sync hook. It only buffers
// the dirty key — the change rides the next gossip tick, coalesced with
// everything else that changed since the last flush.
func (n *Node) push(k knowledge.Knowgget) {
	n.mu.Lock()
	n.dirty[k.Key()] = k
	n.mu.Unlock()
}

// gossipRound runs one anti-entropy round: pick up to fanout random
// peers, send them the full digest (per-creator version vector) with
// the coalesced dirty updates piggybacked as one watermark-contiguous
// delta section. Receivers reconcile and pull or push what differs.
func (n *Node) gossipRound() {
	local := n.kb.LocalID()
	dig := n.kb.Digest()

	n.mu.Lock()
	targets := make([]string, 0, len(n.peers))
	for _, p := range n.peers {
		targets = append(targets, p.addr)
	}
	if len(targets) == 0 {
		n.mu.Unlock()
		return
	}
	if n.fanout > 0 && len(targets) > n.fanout {
		// The shuffle draws from the seeded RNG, so it must start from
		// an order that is not the map's.
		sort.Strings(targets)
		// Partial Fisher-Yates: the first fanout slots become a
		// uniform random subset.
		for i := 0; i < n.fanout; i++ {
			j := i + n.rng.Intn(len(targets)-i)
			targets[i], targets[j] = targets[j], targets[i]
		}
		targets = targets[:n.fanout]
	}
	dirty := n.dirty
	var from, upTo uint64
	if len(dirty) > 0 {
		n.dirty = make(map[string]knowledge.Knowgget, 8)
		from = n.flushedVer
		for _, k := range dirty {
			if k.Version > upTo {
				upTo = k.Version
			}
		}
		n.flushedVer = upTo
	}
	n.mu.Unlock()

	msg := wireMsg{kind: kindGossip, sender: local}
	msg.digest = make([]digestEntry, 0, len(dig))
	for c, v := range dig {
		msg.digest = append(msg.digest, digestEntry{creator: c, version: v})
	}
	sort.Slice(msg.digest, func(i, j int) bool { return msg.digest[i].creator < msg.digest[j].creator })
	if len(dirty) > 0 {
		sec := deltaSection{creator: local, from: from, upTo: upTo}
		sec.entries = make([]knowledge.Knowgget, 0, len(dirty))
		for _, k := range dirty {
			sec.entries = append(sec.entries, k)
		}
		sort.Slice(sec.entries, func(i, j int) bool { return sec.entries[i].Version < sec.entries[j].Version })
		msg.sections = make([]deltaSection, 0, 1)
		msg.sections = append(msg.sections, sec)
	}
	data, err := n.seal(encodeWire(&msg))
	if err != nil {
		return
	}

	n.mu.Lock()
	n.digestsSent += len(targets)
	n.met.DigestsSent.Add(uint64(len(targets)))
	if len(dirty) > 0 {
		n.sent += len(dirty) * len(targets)
		n.met.SyncSent.Add(uint64(len(dirty) * len(targets)))
		n.deltasSent += len(targets)
		n.met.DeltasSent.Add(uint64(len(targets)))
	}
	n.mu.Unlock()
	for _, addr := range targets {
		n.sendReliable(addr, data)
	}
}

// receive handles one datagram from the transport. Malformed or
// corrupt envelopes (failed decrypt or authentication, bad codec) are
// counted and discarded — a hostile or lossy network must never crash
// the collective layer, and a malformed message is never partially
// applied (decodeWire validates everything up front).
func (n *Node) receive(fromAddr string, data []byte) {
	payload, err := n.open(data)
	if err != nil {
		n.countMalformed()
		return
	}
	msg, err := decodeWire(payload)
	if err != nil {
		n.countMalformed()
		return
	}
	local := n.kb.LocalID()
	if msg.sender == local || msg.sender == "" {
		return
	}
	n.mu.Lock()
	n.bytesReceived += uint64(len(data))
	n.met.BytesReceived.Add(uint64(len(data)))
	n.mu.Unlock()

	switch msg.kind {
	case kindBeacon:
		n.mu.Lock()
		_, known := n.peers[msg.sender]
		n.admitLocked(msg.sender, fromAddr)
		n.met.Peers.Set(int64(len(n.peers)))
		n.mu.Unlock()
		if !known {
			n.kb.PutInt("Peers", len(n.Peers()))
			n.syncTo(fromAddr)
		}
	case kindGossip:
		n.admitOrTouch(msg.sender, fromAddr)
		n.mu.Lock()
		n.digestsReceived++
		n.met.DigestsReceived.Inc()
		n.mu.Unlock()
		n.applySections(msg.sender, msg.sections)
		n.reconcile(msg.sender, fromAddr, msg.digest)
	case kindDeltaReq:
		n.touch(msg.sender, fromAddr)
		n.sendDeltas(fromAddr, msg.want)
	case kindDelta:
		n.touch(msg.sender, fromAddr)
		n.applySections(msg.sender, msg.sections)
	}
}

func (n *Node) countMalformed() {
	n.mu.Lock()
	n.malformed++
	n.met.Malformed.Inc()
	n.mu.Unlock()
}

// admitOrTouch records a gossip sender: refresh if known, admit if
// new. Unlike a beacon, gossip discovery needs no bootstrap snapshot —
// the digest exchange itself pulls whatever is missing.
func (n *Node) admitOrTouch(id, addr string) {
	n.mu.Lock()
	_, known := n.peers[id]
	n.admitLocked(id, addr)
	n.met.Peers.Set(int64(len(n.peers)))
	count := len(n.peers)
	n.mu.Unlock()
	if !known {
		n.kb.PutInt("Peers", count)
	}
}

// applySections version-checks every entry of every delta section into
// the Knowledge Base and advances the per-creator watermark when the
// section is contiguous with it (vv[creator] >= from). Non-contiguous
// sections (an earlier chunk was lost) still apply their values —
// AcceptGossip is version-guarded, so this is always safe — but the
// watermark stays put and the next digest exchange pulls the gap.
func (n *Node) applySections(fromID string, secs []deltaSection) {
	if len(secs) == 0 {
		return
	}
	local := n.kb.LocalID()
	for _, sec := range secs {
		if sec.creator == local || sec.creator == "" {
			continue
		}
		accepted := 0
		for _, k := range sec.entries {
			k.Creator = sec.creator
			// AcceptGossip runs outside n.mu: it fires Knowledge Base
			// subscriptions, which may re-enter this node (e.g. a
			// module publishing a new collective knowgget in reaction).
			if n.kb.AcceptGossip(fromID, k) {
				accepted++
			}
		}
		n.mu.Lock()
		n.received += accepted
		n.met.SyncReceived.Add(uint64(accepted))
		n.rejected += len(sec.entries) - accepted
		n.met.SyncRejected.Add(uint64(len(sec.entries) - accepted))
		n.deltasReceived++
		n.met.DeltasReceived.Inc()
		if n.vv[sec.creator] >= sec.from && sec.upTo > n.vv[sec.creator] {
			n.vv[sec.creator] = sec.upTo
		}
		n.mu.Unlock()
	}
}

// reconcile compares a peer's digest against local state and completes
// the push-pull exchange: request deltas for creators the peer is
// ahead on (measured against our contiguous watermarks), and send
// deltas for creators we are ahead on (measured against the digest the
// peer just advertised).
func (n *Node) reconcile(senderID, fromAddr string, theirs []digestEntry) {
	local := n.kb.LocalID()
	ours := n.kb.Digest()

	theirMap := make(map[string]uint64, len(theirs))
	want := make([]digestEntry, 0, 4)
	n.mu.Lock()
	for _, e := range theirs {
		theirMap[e.creator] = e.version
		if e.creator == local {
			continue
		}
		if e.version > n.vv[e.creator] {
			want = append(want, digestEntry{creator: e.creator, version: n.vv[e.creator]})
		}
	}
	n.mu.Unlock()

	give := make([]digestEntry, 0, 4)
	for c, v := range ours {
		if c == senderID { // the sender owns its own state
			continue
		}
		if v > theirMap[c] {
			give = append(give, digestEntry{creator: c, version: theirMap[c]})
		}
	}
	sort.Slice(give, func(i, j int) bool { return give[i].creator < give[j].creator })

	if len(want) > 0 {
		sort.Slice(want, func(i, j int) bool { return want[i].creator < want[j].creator })
		data, err := n.seal(encodeWire(&wireMsg{kind: kindDeltaReq, sender: local, want: want}))
		if err == nil {
			n.sendReliable(fromAddr, data)
		}
	}
	if len(give) > 0 {
		n.sendDeltas(fromAddr, give)
	}
}

// softDatagramLimit caps a delta message's encoded size: a sealed
// datagram fits the UDP transport's maxDatagram read buffer with room
// to spare. Only a single entry larger than the limit makes a message
// that passes it.
const softDatagramLimit = 48 << 10

// deltaChunkEntries bounds entries per section, well under the decode
// cap.
const deltaChunkEntries = 512

// sendDeltas builds and sends delta messages answering wants: for each
// (creator, since) pair, every collective knowgget of that creator
// newer than since, chunked into watermark-chained sections and cut
// into datagrams before they pass the soft size limit, measured by the
// wire format's upper bounds.
func (n *Node) sendDeltas(addr string, wants []digestEntry) {
	local := n.kb.LocalID()
	msg := wireMsg{kind: kindDelta, sender: local}
	msg.sections = make([]deltaSection, 0, len(wants))
	size := wireHeaderBound(local)
	entries := 0
	flush := func() {
		if len(msg.sections) == 0 {
			return
		}
		data, err := n.seal(encodeWire(&msg))
		if err == nil {
			n.mu.Lock()
			n.deltasSent++
			n.met.DeltasSent.Inc()
			n.sent += entries
			n.met.SyncSent.Add(uint64(entries))
			n.mu.Unlock()
			n.sendReliable(addr, data)
		}
		msg.sections = msg.sections[:0]
		size, entries = wireHeaderBound(local), 0
	}
	for _, w := range wants {
		delta := n.kb.CollectiveSince(w.creator, w.version)
		from := w.version
		for len(delta) > 0 {
			// Take the entries that fit the message, up to a chunk; a
			// message's first entry goes in whatever its size.
			size += wireSectionBound(w.creator)
			end := 0
			for end < min(len(delta), deltaChunkEntries) {
				k := &delta[end]
				b := wireEntryBound(k)
				if size+b > softDatagramLimit && entries+end > 0 {
					break
				}
				size += b
				end++
			}
			if end > 0 {
				sec := deltaSection{creator: w.creator, from: from, upTo: delta[end-1].Version, entries: delta[:end]}
				msg.sections = append(msg.sections, sec)
				entries += end
				from = sec.upTo
				delta = delta[end:]
			}
			if (len(delta) > 0 && end < deltaChunkEntries) || len(msg.sections) == maxDeltaSections {
				flush() // the message is full
			}
		}
	}
	flush()
}

// syncTo sends the full collective state (every creator we hold,
// from version 0) to a newly beacon-discovered peer — the
// first-contact bootstrap, and the only remaining full-snapshot push.
func (n *Node) syncTo(addr string) {
	dig := n.kb.Digest()
	if len(dig) == 0 {
		return
	}
	wants := make([]digestEntry, 0, len(dig))
	for c := range dig {
		wants = append(wants, digestEntry{creator: c})
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].creator < wants[j].creator })
	n.sendDeltas(addr, wants)
}

// seal encrypts a wire payload with AES-GCM (random nonce prepended).
func (n *Node) seal(payload []byte) ([]byte, error) {
	nonce := make([]byte, n.aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return n.aead.Seal(nonce, nonce, payload, nil), nil
}

// open decrypts a datagram into the wire payload.
func (n *Node) open(data []byte) ([]byte, error) {
	ns := n.aead.NonceSize()
	if len(data) < ns {
		return nil, errWire
	}
	plain, err := n.aead.Open(nil, data[:ns], data[ns:], nil)
	if err != nil {
		return nil, errWire
	}
	return plain, nil
}

// Close stops beaconing and closes the transport.
func (n *Node) Close() error {
	n.StopBeacon()
	return n.transport.Close()
}
