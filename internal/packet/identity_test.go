package packet

import (
	"fmt"
	"testing"
)

// TestHandleOfStable: a name keeps its handle while it is in the table,
// distinct names get distinct handles, and the empty NodeID is handle 0.
func TestHandleOfStable(t *testing.T) {
	a, b := HandleOf("stable-a"), HandleOf("stable-b")
	if a == 0 || b == 0 || a == b {
		t.Fatalf("handles %v and %v: want two distinct non-zero handles", a, b)
	}
	if HandleOf("stable-a") != a || !Live(a) {
		t.Error("a name's handle changed while it was in the table")
	}
	if HandleOf("") != 0 {
		t.Error("the empty NodeID has a handle")
	}
}

// TestEvictedHandleMisses is the generation rule: once an identity has
// been evicted, its old handle is dead, per-identity state stored under
// it is not served to the identity now holding the slot, and the
// identity comes back under a new handle.
func TestEvictedHandleMisses(t *testing.T) {
	old := HandleOf("evict-me")
	var state ByHandle[string]
	v, fresh := state.Put(old)
	if !fresh {
		t.Fatal("first Put of a handle is not fresh")
	}
	*v = "evict-me's state"
	// Twice the capacity of never-seen names: the table is full after
	// the first pass, and every identity not seen since is evicted.
	for i := 0; i < 2*IdentityCapacity; i++ {
		HandleOf(NodeID(fmt.Sprintf("evict-flood-%d", i)))
	}
	if Live(old) || Seen(old) {
		t.Fatal("an identity idle through two table sweeps is still live")
	}
	if LiveIdentities() > IdentityCapacity {
		t.Fatalf("%d live identities, over the capacity %d", LiveIdentities(), IdentityCapacity)
	}
	if state.Get(old) == nil {
		t.Fatal("state lost before its slot was reused")
	}
	// Whoever holds the slot now finds no state of its own there...
	var squatter Handle
	for i := 0; i < 2*IdentityCapacity; i++ {
		if h := HandleOf(NodeID(fmt.Sprintf("evict-flood-%d", i))); h.Slot() == old.Slot() {
			squatter = h
			break
		}
	}
	if squatter == 0 || squatter == old {
		t.Fatalf("no identity took over slot %d", old.Slot())
	}
	if state.Get(squatter) != nil {
		t.Error("the slot's new identity was served the evicted identity's state")
	}
	// ...and storing for it drops the evicted identity's state.
	if v, fresh := state.Put(squatter); !fresh || *v != "" {
		t.Errorf("Put for the slot's new identity = %q, fresh %v; want zeroed and fresh", *v, fresh)
	}
	if state.Get(old) != nil || state.Len() != 1 {
		t.Errorf("evicted state survived: Get = %v, Len = %d", state.Get(old), state.Len())
	}
	if back := HandleOf("evict-me"); back == old {
		t.Error("a returning identity got its evicted handle back")
	}
}

// TestClockSparesActiveIdentities: an identity seen between the hand's
// passes survives a flood of one-frame identities.
func TestClockSparesActiveIdentities(t *testing.T) {
	keep := HandleOf("keep-me")
	for i := 0; i < 4*IdentityCapacity; i++ {
		HandleOf(NodeID(fmt.Sprintf("clock-flood-%d", i)))
		if i%256 == 0 && !Seen(keep) {
			t.Fatalf("an identity seen every 256 frames was evicted after %d new ones", i)
		}
	}
}

// TestIdentify: a capture built by hand fails CheckHandles until
// Identify gives it the handles its names have.
func TestIdentify(t *testing.T) {
	c := &Captured{Src: "hand-src", Dst: "hand-dst"}
	if !panics(c.CheckHandles) {
		t.Fatal("a capture with names and no handles passed CheckHandles")
	}
	c.Identify()
	if panics(c.CheckHandles) || c.SrcH != HandleOf("hand-src") || c.DstH != HandleOf("hand-dst") || c.TransmitterH != 0 {
		t.Errorf("Identify gave %v/%v/%v", c.SrcH, c.DstH, c.TransmitterH)
	}
	if panics((&Captured{}).CheckHandles) {
		t.Error("a capture without identities failed CheckHandles")
	}
}

// TestStickyOutlivesEviction: an identity evicted from the table and
// back under a new handle finds the state it left in a Sticky; state
// whose slot the holder filed another identity's state in is gone.
func TestStickyOutlivesEviction(t *testing.T) {
	var m Sticky[string]
	keep, lose := HandleOf("sticky-keep"), HandleOf("sticky-lose")
	v, fresh, _ := m.Put(keep, "sticky-keep")
	*v = "root"
	w, _, _ := m.Put(lose, "sticky-lose")
	*w = "relay"
	if !fresh {
		t.Fatal("first Put is not fresh")
	}
	for i := 0; i < 2*IdentityCapacity; i++ {
		HandleOf(NodeID(fmt.Sprintf("sticky-flood-%d", i)))
	}
	if Live(keep) || Live(lose) {
		t.Fatal("identities idle through two sweeps are still live")
	}
	// Another identity's state lands in lose's slot.
	for i := 0; i < 2*IdentityCapacity; i++ {
		id := NodeID(fmt.Sprintf("sticky-flood-%d", i))
		if h := HandleOf(id); h.Slot() == lose.Slot() {
			m.Put(h, id)
			break
		}
	}
	back := HandleOf("sticky-keep")
	v, fresh, moved := m.Put(back, "sticky-keep")
	if fresh || *v != "root" || moved != keep {
		t.Errorf("returning identity: state %q, fresh %v, moved from %v; want %q from %v", *v, fresh, moved, "root", keep)
	}
	if m.Get(keep) != nil || m.Get(back) != v {
		t.Error("the state is still filed under the dead handle")
	}
	if w, fresh, _ := m.Put(HandleOf("sticky-lose"), "sticky-lose"); !fresh || *w != "" {
		t.Errorf("state lost to another identity came back: %q", *w)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestByHandleZeroPanics: state filed under handle 0 — every identity of
// a capture built by hand without Identify — fails loudly.
func TestByHandleZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Put(0) did not panic")
		}
	}()
	var m ByHandle[int]
	m.Put(0)
}
