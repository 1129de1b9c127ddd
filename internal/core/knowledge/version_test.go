package knowledge

import (
	"reflect"
	"testing"
)

func TestLocalCollectiveVersionsMonotonic(t *testing.T) {
	b := NewBase("K1")
	b.PutCollective(LabelMultihop, "", "true")
	b.PutCollective(LabelSuspectBlackhole, "0x01", "0.4")
	b.PutCollective(LabelSuspectBlackhole, "0x01", "0.4") // no-op: burns no version
	b.PutCollective(LabelSuspectBlackhole, "0x01", "0.9")

	if got := b.LocalVersion(); got != 3 {
		t.Fatalf("LocalVersion = %d, want 3", got)
	}
	k, _ := b.Get(Knowgget{Creator: "K1", Label: LabelSuspectBlackhole, Entity: "0x01"}.Key())
	if k.Version != 3 {
		t.Fatalf("overwritten key carries Version %d, want 3", k.Version)
	}
	// Non-collective puts are unversioned.
	b.PutBool(LabelMobility, true)
	k, _ = b.Get(Knowgget{Creator: "K1", Label: LabelMobility}.Key())
	if k.Version != 0 {
		t.Fatalf("local non-collective knowgget has Version %d, want 0", k.Version)
	}
}

func TestAcceptGossipVersionGuardAndRelay(t *testing.T) {
	b := NewBase("K1")
	// Relayed third-party creator is accepted (from != creator).
	if !b.AcceptGossip("K2", Knowgget{Label: "X", Value: "1", Creator: "K3", Version: 2}) {
		t.Fatal("relayed knowgget rejected")
	}
	// Stale or equal versions are rejected.
	if b.AcceptGossip("K2", Knowgget{Label: "X", Value: "9", Creator: "K3", Version: 2}) {
		t.Fatal("equal version accepted")
	}
	if b.AcceptGossip("K2", Knowgget{Label: "X", Value: "9", Creator: "K3", Version: 1}) {
		t.Fatal("stale version accepted")
	}
	// Newer version wins, even with the same value (refresh).
	if !b.AcceptGossip("K2", Knowgget{Label: "X", Value: "1", Creator: "K3", Version: 5}) {
		t.Fatal("newer same-value version rejected")
	}
	k, _ := b.Get(Knowgget{Creator: "K3", Label: "X"}.Key())
	if k.Version != 5 || k.Value != "1" || !k.Collective {
		t.Fatalf("stored = %+v, want Version 5 Value 1 Collective", k)
	}
	// Local creator and unversioned knowggets are always rejected.
	if b.AcceptGossip("K2", Knowgget{Label: "X", Value: "evil", Creator: "K1", Version: 99}) {
		t.Fatal("gossip overwrote local creator namespace")
	}
	if b.AcceptGossip("K2", Knowgget{Label: "X", Value: "1", Creator: "K4"}) {
		t.Fatal("unversioned gossip accepted")
	}
	if b.AcceptGossip("K1", Knowgget{Label: "X", Value: "1", Creator: "K4", Version: 1}) {
		t.Fatal("self-addressed gossip accepted")
	}
}

func TestAcceptGossipNotifiesOnlyOnValueChange(t *testing.T) {
	b := NewBase("K1")
	var fired []string
	b.Subscribe("X", func(k Knowgget) { fired = append(fired, k.Value) })
	b.AcceptGossip("K2", Knowgget{Label: "X", Value: "a", Creator: "K2", Version: 1})
	b.AcceptGossip("K2", Knowgget{Label: "X", Value: "a", Creator: "K2", Version: 2}) // refresh
	b.AcceptGossip("K2", Knowgget{Label: "X", Value: "b", Creator: "K2", Version: 3})
	if !reflect.DeepEqual(fired, []string{"a", "b"}) {
		t.Fatalf("subscriber fired for %v, want [a b]", fired)
	}
}

func TestDigestAndCollectiveSince(t *testing.T) {
	b := NewBase("K1")
	b.PutCollective("A", "", "1")
	b.PutCollective("B", "", "2")
	b.AcceptGossip("K2", Knowgget{Label: "C", Value: "3", Creator: "K2", Version: 7})
	b.AcceptGossip("K2", Knowgget{Label: "D", Value: "4", Creator: "K3", Version: 2})

	want := map[string]uint64{"K1": 2, "K2": 7, "K3": 2}
	if got := b.Digest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Digest = %v, want %v", got, want)
	}

	delta := b.CollectiveSince("K1", 1)
	if len(delta) != 1 || delta[0].Label != "B" || delta[0].Version != 2 {
		t.Fatalf("CollectiveSince(K1,1) = %+v", delta)
	}
	if got := b.CollectiveSince("K2", 7); len(got) != 0 {
		t.Fatalf("CollectiveSince(K2,7) = %+v, want empty", got)
	}
	all := b.CollectiveSince("K1", 0)
	if len(all) != 2 || all[0].Version != 1 || all[1].Version != 2 {
		t.Fatalf("CollectiveSince(K1,0) not version-ordered: %+v", all)
	}
}

func TestRestoreResumesLocalVersionCounter(t *testing.T) {
	b := NewBase("K1")
	b.Restore(keyed(
		Knowgget{Label: "A", Value: "1", Creator: "K1", Collective: true, Version: 4},
		Knowgget{Label: "B", Value: "2", Creator: "K2", Collective: true, Version: 9},
	), nil)
	if b.Len() != 2 {
		t.Fatalf("Len after restore = %d, want 2", b.Len())
	}
	if got := b.LocalVersion(); got != 4 {
		t.Fatalf("LocalVersion after restore = %d, want 4", got)
	}
	b.PutCollective("A", "", "next")
	k, _ := b.Get(Knowgget{Creator: "K1", Label: "A"}.Key())
	if k.Version != 5 {
		t.Fatalf("post-restore version = %d, want 5", k.Version)
	}
}

// keyed returns ks keyed as Restore takes them.
func keyed(ks ...Knowgget) map[string]Knowgget {
	state := make(map[string]Knowgget, len(ks))
	for _, k := range ks {
		state[k.Key()] = k
	}
	return state
}
