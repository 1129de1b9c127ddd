package collective

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
)

func pair(t *testing.T) (*knowledge.Base, *Node, *knowledge.Base, *Node) {
	t.Helper()
	hub := NewHub()
	kb1 := knowledge.NewBase("K1")
	kb2 := knowledge.NewBase("K2")
	n1, err := NewNode(kb1, hub.Endpoint("addr1"), "secret")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(kb2, hub.Endpoint("addr2"), "secret")
	if err != nil {
		t.Fatal(err)
	}
	return kb1, n1, kb2, n2
}

func TestDiscoveryAndSync(t *testing.T) {
	kb1, n1, kb2, n2 := pair(t)
	n1.Beacon()
	n2.Beacon()
	if got := n1.Peers(); len(got) != 1 || got[0] != "K2" {
		t.Fatalf("n1 peers = %v", got)
	}
	if got := n2.Peers(); len(got) != 1 || got[0] != "K1" {
		t.Fatalf("n2 peers = %v", got)
	}
	if v, ok := kb1.Int("Peers"); !ok || v != 1 {
		t.Errorf("Peers knowgget = %d ok=%v", v, ok)
	}

	kb1.PutCollective("SuspectBlackhole", "0x0005", "7,8")
	// Updates are buffered until the next gossip tick.
	if _, ok := kb2.Get("K1$SuspectBlackhole@0x0005"); ok {
		t.Fatal("update propagated before the gossip tick")
	}
	n1.Gossip()
	kg, ok := kb2.Get("K1$SuspectBlackhole@0x0005")
	if !ok {
		t.Fatal("collective knowgget not propagated")
	}
	if kg.Value != "7,8" || kg.Creator != "K1" || kg.Version == 0 {
		t.Errorf("knowgget = %+v", kg)
	}
	// Local-only knowggets must not propagate.
	kb1.Put("Multihop", "true")
	n1.Gossip()
	if _, ok := kb2.Get("K1$Multihop"); ok {
		t.Error("non-collective knowgget propagated")
	}
}

func TestInitialSyncOnDiscovery(t *testing.T) {
	kb1, n1, kb2, n2 := pair(t)
	_ = n1
	// K1 holds collective knowledge before any peer exists.
	kb1.PutCollective("EmergentSource", "0x0009", "7")
	if _, ok := kb2.Get("K1$EmergentSource@0x0009"); ok {
		t.Fatal("knowledge propagated without discovery")
	}
	// K2's beacon makes K1 discover it; K1 pushes its snapshot.
	n2.Beacon()
	kg, ok := kb2.Get("K1$EmergentSource@0x0009")
	if !ok {
		t.Fatal("snapshot not synced to newly discovered peer")
	}
	if kg.Value != "7" {
		t.Errorf("knowgget = %+v", kg)
	}
}

// TestUpdateCoalescing: repeated changes to one key between gossip
// ticks flush as a single latest-version entry, not one send per
// change (the sent-counter blow-up of the old per-update push).
func TestUpdateCoalescing(t *testing.T) {
	kb1, n1, kb2, n2 := pair(t)
	n1.Beacon()
	n2.Beacon()
	sent0, _, _ := n1.Stats()
	kb1.PutCollective("SignalStrength", "SensorA", "-67")
	kb1.PutCollective("SignalStrength", "SensorA", "-73")
	kb1.PutCollective("SignalStrength", "SensorA", "-80")
	n1.Gossip()
	kg, _ := kb2.Get("K1$SignalStrength@SensorA")
	if kg.Value != "-80" {
		t.Errorf("value = %q, want -80", kg.Value)
	}
	sent, _, _ := n1.Stats()
	if got := sent - sent0; got != 1 {
		t.Errorf("sent %d entries for 3 coalesced updates, want 1", got)
	}
	_, received, rejected := n2.Stats()
	if received < 1 || rejected != 0 {
		t.Errorf("received=%d rejected=%d", received, rejected)
	}
}

// TestGossipRelayAndPull: knowledge hops creator→B→C even though A and
// C never talk directly, via B relaying in its digest and C pulling
// the delta.
func TestGossipRelayAndPull(t *testing.T) {
	hub := NewHub()
	kbA := knowledge.NewBase("KA")
	kbB := knowledge.NewBase("KB")
	kbC := knowledge.NewBase("KC")
	nA, _ := NewNode(kbA, hub.Endpoint("a"), "secret")
	nB, _ := NewNode(kbB, hub.Endpoint("b"), "secret")
	nC, _ := NewNode(kbC, hub.Endpoint("c"), "secret")
	nA.AddPeer("KB", "b")
	nB.AddPeer("KA", "a")
	nB.AddPeer("KC", "c")
	nC.AddPeer("KB", "b")

	kbA.PutCollective("EmergentSource", "0x0009", "7")
	nA.Gossip() // A → B (piggybacked dirty flush)
	if _, ok := kbB.Get("KA$EmergentSource@0x0009"); !ok {
		t.Fatal("first hop failed")
	}
	if _, ok := kbC.Get("KA$EmergentSource@0x0009"); ok {
		t.Fatal("C knows before any B round")
	}
	nC.Gossip() // C's digest lacks KA; B pushes the delta back
	kg, ok := kbC.Get("KA$EmergentSource@0x0009")
	if !ok {
		t.Fatal("relay to C failed")
	}
	if kg.Creator != "KA" || kg.Value != "7" {
		t.Errorf("knowgget = %+v", kg)
	}
	if vv := nC.VersionVector(); vv["KA"] != 1 {
		t.Errorf("C watermark for KA = %d, want 1", vv["KA"])
	}
}

// TestFanoutCap: a gossip round contacts at most fanout peers.
func TestFanoutCap(t *testing.T) {
	hub := NewHub()
	kb := knowledge.NewBase("K0")
	n, _ := NewNode(kb, hub.Endpoint("p0"), "secret")
	n.SetFanout(3)
	const peers = 10
	got := 0
	for i := 1; i <= peers; i++ {
		ep := hub.Endpoint(fmt.Sprintf("p%d", i))
		ep.SetHandler(func(_ string, _ []byte) { got++ })
		n.AddPeer(fmt.Sprintf("K%d", i), fmt.Sprintf("p%d", i))
	}
	kb.PutCollective("X", "", "1")
	n.Gossip()
	if got != 3 {
		t.Fatalf("gossip round reached %d peers, want 3", got)
	}
	ds, _, _, _ := n.GossipStats()
	if ds != 3 {
		t.Fatalf("digestsSent = %d, want 3", ds)
	}
}

// TestDigestPullRecovery: a peer that missed piggybacked flushes (it
// was not among the fan-out targets, or the datagram was lost)
// catches up through the digest exchange of its own next round.
func TestDigestPullRecovery(t *testing.T) {
	kb1, n1, kb2, n2 := pair(t)
	n1.Beacon()
	n2.Beacon()
	// Flush while K2's receive path drops everything: the piggyback
	// datagram vanishes in flight.
	dropping := true
	n2.transport.SetHandler(func(from string, data []byte) {
		if dropping {
			return
		}
		n2.receive(from, data)
	})
	kb1.PutCollective("Mediums.wifi", "", "true")
	n1.Gossip()
	dropping = false
	if _, ok := kb2.Get("K1$Mediums.wifi"); ok {
		t.Fatal("flush survived the dropped datagram")
	}
	// K2's own round advertises its stale digest; K1 answers with the
	// missing delta.
	n2.Gossip()
	if _, ok := kb2.Get("K1$Mediums.wifi"); !ok {
		t.Fatal("digest exchange did not recover the missed delta")
	}
	if vv := n2.VersionVector(); vv["K1"] == 0 {
		t.Error("K2 watermark for K1 not advanced")
	}
}

func TestWrongPassphraseIsolated(t *testing.T) {
	hub := NewHub()
	kb1 := knowledge.NewBase("K1")
	kb2 := knowledge.NewBase("K2")
	n1, _ := NewNode(kb1, hub.Endpoint("a1"), "secret")
	n2, _ := NewNode(kb2, hub.Endpoint("a2"), "other")
	n1.Beacon()
	n2.Beacon()
	if len(n1.Peers()) != 0 || len(n2.Peers()) != 0 {
		t.Error("nodes with different keys discovered each other")
	}
	kb1.PutCollective("X", "", "1")
	if _, ok := kb2.Get("K1$X"); ok {
		t.Error("knowledge crossed key domains")
	}
}

func TestNoSelfPeering(t *testing.T) {
	hub := NewHub()
	kb := knowledge.NewBase("K1")
	n, _ := NewNode(kb, hub.Endpoint("a1"), "secret")
	// A second endpoint replays K1's own beacon back.
	echo := hub.Endpoint("a2")
	var captured []byte
	echo.SetHandler(func(_ string, data []byte) { captured = append([]byte(nil), data...) })
	n.Beacon()
	if captured == nil {
		t.Fatal("beacon not observed")
	}
	_ = echo.Send("a1", captured)
	if len(n.Peers()) != 0 {
		t.Error("node peered with itself")
	}
}

func TestUDPTransport(t *testing.T) {
	kb1 := knowledge.NewBase("K1")
	kb2 := knowledge.NewBase("K2")
	t1, err := NewUDPTransport("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := NewUDPTransport("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Point the "broadcast" domains at each other (loopback has no
	// real broadcast).
	t1.SetBroadcasts([]string{t2.Addr()})
	t2.SetBroadcasts([]string{t1.Addr()})

	n1, err := NewNode(kb1, t1, "secret")
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(kb2, t2, "secret")
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	defer n2.Close()

	n1.RunBeacon(20 * time.Millisecond)
	n2.RunBeacon(20 * time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(n1.Peers()) == 1 && len(n2.Peers()) == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(n1.Peers()) != 1 || len(n2.Peers()) != 1 {
		t.Fatalf("discovery failed: %v / %v", n1.Peers(), n2.Peers())
	}

	kb1.PutCollective("Multihop", "", "true")
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := kb2.Get("K1$Multihop"); ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := kb2.Get("K1$Multihop"); !ok {
		t.Fatal("knowgget did not propagate over UDP")
	}
}

// TestOversizedCollectiveIsRefused: a collective knowgget too long to
// seal into one datagram is refused where it enters the Knowledge Base,
// local or gossiped, so no node ships one that a peer cannot open and
// asks for again in every digest exchange.
func TestOversizedCollectiveIsRefused(t *testing.T) {
	kb1, n1, kb2, n2 := pair(t)
	n1.Beacon()
	n2.Beacon()
	big := strings.Repeat("v", 64<<10)
	if kb1.PutCollective("Big", "", big) {
		t.Error("a 64 KiB collective value was accepted")
	}
	if kb2.AcceptGossip("K3", knowledge.Knowgget{Label: "Big", Value: big, Creator: "K3", Version: 1}) {
		t.Error("a gossiped 64 KiB collective value was accepted")
	}
	if !kb1.Put("Big", big) {
		t.Error("a 64 KiB local (not collective) value was refused")
	}
	kb1.PutCollective("Small", "", "1")
	n1.Gossip()
	n2.Gossip()
	if _, ok := kb2.Get("K1$Small"); !ok {
		t.Error("the small collective knowgget did not propagate")
	}
	if v := kb1.LocalVersion(); v != 1 {
		t.Errorf("K1 assigned %d collective versions, want 1: the refused put burnt one", v)
	}
}
