package knowledge

import (
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestKeyEncoding(t *testing.T) {
	cases := []struct {
		k    Knowgget
		want string
	}{
		{Knowgget{Label: "Multihop", Value: "true", Creator: "K1"}, "K1$Multihop"},
		{Knowgget{Label: "SignalStrength", Value: "-67", Creator: "K1", Entity: "SensorA"}, "K1$SignalStrength@SensorA"},
		{Knowgget{Label: "TrafficFrequency.TCPSYN", Value: "0.037", Creator: "T1"}, "T1$TrafficFrequency.TCPSYN"},
	}
	for _, c := range cases {
		if got := c.k.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
		creator, label, entity := ParseKey(c.k.Key())
		if creator != c.k.Creator || label != c.k.Label || entity != c.k.Entity {
			t.Errorf("ParseKey(%q) = (%q,%q,%q)", c.k.Key(), creator, label, entity)
		}
	}
}

func TestPutGetTyped(t *testing.T) {
	b := NewBase("K1")
	b.PutBool("Multihop", true)
	b.PutInt("MonitoredNodes", 8)
	b.PutEntity("SignalStrength", "SensorA", "-67.5")

	if v, ok := b.Bool("Multihop"); !ok || !v {
		t.Error("Bool")
	}
	if v, ok := b.Int("MonitoredNodes"); !ok || v != 8 {
		t.Error("Int")
	}
	if v, ok := b.EntityFloat("SignalStrength", "SensorA"); !ok || v != -67.5 {
		t.Error("EntityFloat")
	}
	if _, ok := b.Bool("Absent"); ok {
		t.Error("absent knowgget parsed")
	}
	b.Put("NotABool", "banana")
	if _, ok := b.Bool("NotABool"); ok {
		t.Error("type mismatch should fail")
	}
}

func TestStoreChangeDetection(t *testing.T) {
	b := NewBase("K1")
	if !b.Put("X", "1") {
		t.Error("first put should change")
	}
	if b.Put("X", "1") {
		t.Error("same value should not change")
	}
	if !b.Put("X", "2") {
		t.Error("new value should change")
	}
}

func TestQueries(t *testing.T) {
	b := NewBase("K1")
	b.Put("Multihop", "true")
	b.Put("TrafficFrequency.TCPSYN", "0.037")
	b.Put("TrafficFrequency.TCPACK", "0.090")
	b.PutEntity("SignalStrength", "SensorA", "-67")
	b.AcceptGossip("K2", Knowgget{Label: "SignalStrength", Value: "-84", Creator: "K2", Entity: "SensorA", Version: 1})

	if got := len(b.QueryLocal()); got != 4 {
		t.Errorf("QueryLocal = %d, want 4", got)
	}
	peer := b.QueryPrefix("K2$")
	if len(peer) != 1 || peer[0].Creator != "K2" {
		t.Errorf("QueryPrefix(K2$) = %+v", peer)
	}
	kids := b.QueryPrefix("K1$TrafficFrequency.")
	if len(kids) != 2 {
		t.Errorf("multilevel children = %d, want 2", len(kids))
	}
	if kids[0].Label != "TrafficFrequency.TCPACK" {
		t.Errorf("children not sorted: %+v", kids)
	}
}

// TestAppendLocal: the label-scoped read returns exactly the local
// knowggets of its label — not a peer's, not a multilevel child's —
// appended to the caller's buffer, and it follows puts, deletes and
// restores.
func TestAppendLocal(t *testing.T) {
	b := NewBase("K1")
	b.PutEntity("SignalStrength", "SensorA", "-67")
	b.PutCollective("SignalStrength", "SensorB", "-70")
	b.PutEntity("SignalStrength.Peak", "SensorA", "-60")
	b.Put("Multihop", "true")
	b.AcceptGossip("K2", Knowgget{Label: "SignalStrength", Value: "-84", Creator: "K2", Entity: "SensorC", Version: 1})
	read := func(buf []Knowgget) []string {
		var out []string
		for _, k := range b.AppendLocal(buf, "SignalStrength")[len(buf):] {
			out = append(out, k.Entity+"="+k.Value)
		}
		sort.Strings(out)
		return out
	}
	held := []Knowgget{{Label: "held"}}
	if got := read(held); !slices.Equal(got, []string{"SensorA=-67", "SensorB=-70"}) {
		t.Errorf("AppendLocal = %v, want SensorA and SensorB", got)
	}
	b.PutEntity("SignalStrength", "SensorA", "-66")
	b.PutEntity("SignalStrength", "SensorE", "-50")
	b.Delete(Knowgget{Creator: "K1", Label: "SignalStrength", Entity: "SensorB"}.Key())
	b.Restore(keyed(Knowgget{Label: "SignalStrength", Value: "-90", Creator: "K1", Entity: "SensorD"}), nil)
	if got := read(nil); !slices.Equal(got, []string{"SensorA=-66", "SensorD=-90", "SensorE=-50"}) {
		t.Errorf("after puts, a delete and a restore: AppendLocal = %v, want SensorA=-66, SensorD=-90 and SensorE=-50", got)
	}
	for _, e := range []string{"SensorA", "SensorD", "SensorE"} {
		b.Delete(Knowgget{Creator: "K1", Label: "SignalStrength", Entity: e}.Key())
	}
	if got := b.AppendLocal(nil, "SignalStrength"); got != nil {
		t.Errorf("every local fingerprint deleted: AppendLocal = %+v", got)
	}
}

// TestAcceptGossipCreatorRule: §IV-B3's ownership rule as the gossip
// receive path keeps it — a knowgget claiming the local node as creator
// is rejected whoever sends it, so no peer can overwrite local
// knowledge; a peer's own knowggets are accepted and updated in place.
func TestAcceptGossipCreatorRule(t *testing.T) {
	b := NewBase("K1")
	b.Put("X", "mine")
	if b.AcceptGossip("K2", Knowgget{Label: "X", Value: "1", Creator: "K1", Version: 9}) {
		t.Error("peer overwrote local knowledge")
	}
	if b.AcceptGossip("K1", Knowgget{Label: "X", Value: "1", Creator: "K1", Version: 9}) {
		t.Error("self-acceptance")
	}
	if v, _ := b.Value("X"); v != "mine" {
		t.Errorf("local X = %q after forged gossip", v)
	}
	if !b.AcceptGossip("K2", Knowgget{Label: "X", Value: "1", Creator: "K2", Version: 1}) {
		t.Error("legitimate remote update rejected")
	}
	// Update of the same knowgget by its creator is allowed.
	if !b.AcceptGossip("K2", Knowgget{Label: "X", Value: "2", Creator: "K2", Version: 2}) {
		t.Error("legitimate remote re-update rejected")
	}
	if k, _ := b.Get("K2$X"); k.Value != "2" || !k.Collective {
		t.Errorf("stored peer knowgget = %+v", k)
	}
}

func TestSubscribeByLabel(t *testing.T) {
	b := NewBase("K1")
	var events []string
	b.Subscribe("Multihop", func(k Knowgget) { events = append(events, k.Value) })
	b.Put("Multihop", "true")
	b.Put("Other", "1")
	b.Put("Multihop", "false")
	if len(events) != 2 || events[0] != "true" || events[1] != "false" {
		t.Errorf("events = %v", events)
	}
}

func TestSubscribeMultilevelParent(t *testing.T) {
	b := NewBase("K1")
	count := 0
	b.Subscribe("TrafficFrequency", func(Knowgget) { count++ })
	b.Put("TrafficFrequency.TCPSYN", "1")
	b.Put("TrafficFrequency.TCPACK", "2")
	b.Put("TrafficFrequencyX", "3") // different label, no dot boundary
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestSubscribeAll(t *testing.T) {
	b := NewBase("K1")
	count := 0
	b.SubscribeAll(func(Knowgget) { count++ })
	b.Put("A", "1")
	b.PutEntity("B", "e", "2")
	b.Put("A", "1") // unchanged: no event
	if count != 2 {
		t.Errorf("count = %d, want 2", count)
	}
}

func TestSubscriberMayReenter(t *testing.T) {
	b := NewBase("K1")
	b.Subscribe("A", func(k Knowgget) {
		if k.Value == "1" {
			b.Put("B", "derived")
		}
	})
	b.Put("A", "1")
	if v, ok := b.Value("B"); !ok || v != "derived" {
		t.Error("re-entrant put failed")
	}
}

// TestNotifyOrderAndSubscribeDuringNotify: one change reaches the
// SubscribeAll list, then the label's, then the multilevel parent's; a
// handler subscribing mid-notification neither disturbs the walk in
// progress nor misses the next change.
func TestNotifyOrderAndSubscribeDuringNotify(t *testing.T) {
	b := NewBase("K1")
	var order []string
	late := false
	b.Subscribe("Freq", func(Knowgget) { order = append(order, "parent") })
	b.Subscribe("Freq.SYN", func(Knowgget) {
		order = append(order, "label")
		if !late {
			late = true
			b.Subscribe("Freq.SYN", func(Knowgget) { order = append(order, "late") })
		}
	})
	b.SubscribeAll(func(Knowgget) { order = append(order, "all") })
	b.Put("Freq.SYN", "1")
	b.Put("Freq.SYN", "2")
	want := []string{"all", "label", "parent", "all", "label", "late", "parent"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

// TestAcceptedPutAllocatesNothingToNotify: an accepted store costs the
// same allocations with handlers on all three lists as with none — the
// lists are walked in place, not gathered.
func TestAcceptedPutAllocatesNothingToNotify(t *testing.T) {
	cost := func(b *Base) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			i++
			b.Put("Freq.SYN", []string{"1", "2"}[i%2])
		})
	}
	bare := cost(NewBase("K1"))
	b := NewBase("K1")
	seen := 0
	for i := 0; i < 3; i++ {
		b.SubscribeAll(func(Knowgget) { seen++ })
		b.Subscribe("Freq.SYN", func(Knowgget) { seen++ })
		b.Subscribe("Freq", func(Knowgget) { seen++ })
	}
	if got := cost(b); got != bare {
		t.Errorf("accepted Put: %v allocs with 9 subscribers, %v with none", got, bare)
	}
	if seen == 0 {
		t.Error("no handler ran")
	}
}

func TestCollectiveSyncHook(t *testing.T) {
	b := NewBase("K1")
	var synced []Knowgget
	b.SetSync(func(k Knowgget) { synced = append(synced, k) })
	b.PutCollective("SignalStrength", "SensorA", "-67")
	b.Put("Local", "x")
	b.AcceptGossip("K2", Knowgget{Label: "Y", Value: "2", Creator: "K2", Version: 1})
	if len(synced) != 1 || synced[0].Label != "SignalStrength" {
		t.Errorf("synced = %+v (remote/local knowggets must not re-sync)", synced)
	}
}

func TestStaticKnowledge(t *testing.T) {
	b := NewBase("K1")
	b.PutStatic("Mobility", "", "false")
	if !b.IsStatic("Mobility") {
		t.Error("IsStatic")
	}
	if b.IsStatic("Multihop") {
		t.Error("unmarked label static")
	}
	if v, ok := b.Bool("Mobility"); !ok || v {
		t.Error("static value not stored")
	}
}

func TestDelete(t *testing.T) {
	b := NewBase("K1")
	b.Put("X", "1")
	if !b.Delete("K1$X") {
		t.Error("delete existing")
	}
	if b.Delete("K1$X") {
		t.Error("delete absent")
	}
	if _, ok := b.Value("X"); ok {
		t.Error("still present")
	}
}

func TestSnapshotAndLen(t *testing.T) {
	b := NewBase("K1")
	for i := 0; i < 5; i++ {
		b.PutInt("N"+strconv.Itoa(i), i)
	}
	if b.Len() != 5 {
		t.Errorf("Len = %d", b.Len())
	}
	snap := b.Snapshot()
	if len(snap) != 5 || snap[0].Key() > snap[4].Key() {
		t.Errorf("snapshot unsorted or wrong size: %v", snap)
	}
}

// TestFigure5Representation reproduces the paper's Fig. 5b: the
// key-value pair representation of the example Knowledge Base.
func TestFigure5Representation(t *testing.T) {
	b := NewBase("K1")
	b.PutBool("Multihop", true)
	b.PutInt("MonitoredNodes", 8)
	b.PutEntity("SignalStrength", "SensorA", "-67")
	b.AcceptGossip("K2", Knowgget{Label: "SignalStrength", Value: "-84", Creator: "K2", Entity: "SensorA", Version: 1})
	b.Put("TrafficFrequency.TCPSYN", "0.037")
	b.Put("TrafficFrequency.TCPACK", "0.090")

	want := map[string]string{
		"K1$Multihop":                "true",
		"K1$MonitoredNodes":          "8",
		"K1$SignalStrength@SensorA":  "-67",
		"K2$SignalStrength@SensorA":  "-84",
		"K1$TrafficFrequency.TCPSYN": "0.037",
		"K1$TrafficFrequency.TCPACK": "0.090",
	}
	snap := b.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("entries = %d, want %d", len(snap), len(want))
	}
	for _, kg := range snap {
		if want[kg.Key()] != kg.Value {
			t.Errorf("%s = %q, want %q", kg.Key(), kg.Value, want[kg.Key()])
		}
	}
}

// TestQuickKeyRoundTrip is the property the durable snapshot format
// depends on: ParseKey(k.Key()) recovers creator/label/entity exactly,
// for ANY component contents — separator bytes included, thanks to
// percent-escaping in Key.
func TestQuickKeyRoundTrip(t *testing.T) {
	prop := func(label, creator, entity string) bool {
		if label == "" || creator == "" {
			return true // components required non-empty by the put API
		}
		k := Knowgget{Label: label, Creator: creator, Entity: entity}
		c, l, e := ParseKey(k.Key())
		return c == creator && l == label && e == entity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestKeySeparatorEscaping pins the previously-broken separator cases
// and the injectivity escaping buys: distinct triples must never
// collide on the same key.
func TestKeySeparatorEscaping(t *testing.T) {
	cases := []Knowgget{
		{Creator: "K1", Label: "L", Entity: "a@b"},
		{Creator: "K1", Label: "L", Entity: "a@b@c"},
		{Creator: "K1", Label: "L@x", Entity: ""},
		{Creator: "K$1", Label: "L", Entity: "e"},
		{Creator: "K1", Label: "100%", Entity: "%40"},
		{Creator: "K1", Label: "TrafficFrequency.TCP@SYN", Entity: "fe80::1%eth0"},
		{Creator: "usr@host", Label: "L", Entity: "$"},
	}
	seen := make(map[string]Knowgget)
	for _, k := range cases {
		key := k.Key()
		c, l, e := ParseKey(key)
		if c != k.Creator || l != k.Label || e != k.Entity {
			t.Errorf("ParseKey(%q) = (%q,%q,%q), want (%q,%q,%q)",
				key, c, l, e, k.Creator, k.Label, k.Entity)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("key collision: %+v and %+v both encode to %q", prev, k, key)
		}
		seen[key] = k
	}
	// Escaped keys stay queryable through the component-based APIs.
	b := NewBase("K1")
	b.PutEntity("Sig@nal", "a@b", "-67")
	if v, ok := b.EntityValue("Sig@nal", "a@b"); !ok || v != "-67" {
		t.Errorf("EntityValue through escaped key = (%q,%v)", v, ok)
	}
	if _, ok := b.EntityValue("Sig@nal", "b"); ok {
		t.Error("EntityValue(b) matched an escaped entity suffix")
	}
}

// TestQueryOrderIsKeyOrder: every query sorts on the storage keys it
// iterated, and that must be the order sorting on Knowgget.Key() gives
// — including components that need escaping, where the key is not the
// plain concatenation of the fields ('%' < '.' < '@': "a%40b" sorts
// before "a.b" although "a@b" as text sorts after it).
func TestQueryOrderIsKeyOrder(t *testing.T) {
	b := NewBase("K$1")
	for _, label := range []string{"Sig@nal", "Sig.nal", "Sig%nal", "Signal", "Sig$nal", "Sig"} {
		b.Put(label, "v")
		for _, entity := range []string{"a@b", "a.b", "a%40b", "a", "a$b", "b"} {
			b.PutEntity(label, entity, "v")
		}
	}
	for i, creator := range []string{"K$2", "K@2", "K%2", "K2"} {
		if !b.AcceptGossip(creator, Knowgget{Creator: creator, Label: "Sig@nal", Entity: "a@b", Value: "v", Version: uint64(i + 1)}) {
			t.Fatalf("gossip from %q rejected", creator)
		}
	}
	queries := map[string][]Knowgget{
		"Snapshot":    b.Snapshot(),
		"QueryLocal":  b.QueryLocal(),
		"QueryPrefix": b.QueryPrefix(EscapeComponent("K$1") + "$Sig."),
	}
	if n := len(queries["Snapshot"]); n != 6*7+4 {
		t.Fatalf("Snapshot holds %d knowggets, want %d", n, 6*7+4)
	}
	for name, got := range queries {
		if len(got) < 4 {
			t.Errorf("%s returned %d knowggets: too few to pin an order", name, len(got))
		}
		want := append([]Knowgget(nil), got...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s is not in Key() order:\n got %v\nwant %v", name, got, want)
		}
	}
}

// TestDefaultVsEvidence: absence-defaults (PutBoolDefault) never
// overwrite evidence (Put*), evidence always overwrites defaults, and
// defaults may replace defaults. On a sharded node per-shard sensing
// instances see only a partition of the traffic, so one shard's "no
// evidence seen" declaration must not clobber another's proof.
func TestDefaultVsEvidence(t *testing.T) {
	b := NewBase("K1")

	// Default lands when the label is unset.
	if !b.PutBoolDefault("Multihop", false) {
		t.Fatal("default rejected on empty label")
	}
	if v, ok := b.Bool("Multihop"); !ok || v {
		t.Fatalf("Multihop = %v, %v after default, want false", v, ok)
	}
	// A later default may replace a default.
	if !b.PutBoolDefault("Multihop", true) {
		t.Fatal("default did not replace an earlier default")
	}
	// Evidence overwrites and pins.
	if !b.PutBool("Multihop", false) {
		t.Fatal("evidence rejected over a default")
	}
	if b.PutBoolDefault("Multihop", true) {
		t.Fatal("default clobbered evidence")
	}
	if v, _ := b.Bool("Multihop"); v {
		t.Fatal("evidence value lost to a default")
	}
	// Evidence with the same value as the standing default still pins.
	b2 := NewBase("K1")
	b2.PutBoolDefault("Mobility", false)
	b2.PutBool("Mobility", false) // no value change, but now evidence
	if b2.PutBoolDefault("Mobility", true) {
		t.Fatal("same-value evidence did not pin the key")
	}
	// Delete clears provenance: a fresh default may land again.
	k := Knowgget{Label: "Mobility", Creator: "K1"}
	b2.Delete(k.Key())
	if !b2.PutBoolDefault("Mobility", true) {
		t.Fatal("default rejected after delete")
	}
}

// TestPutIntMax: high-water-mark writes are monotonic, so per-shard
// instances each publishing their own count cannot regress the label.
func TestPutIntMax(t *testing.T) {
	b := NewBase("K1")
	if !b.PutIntMax("MonitoredNodes", 5) {
		t.Fatal("first max write rejected")
	}
	if b.PutIntMax("MonitoredNodes", 3) {
		t.Fatal("smaller value accepted")
	}
	if !b.PutIntMax("MonitoredNodes", 8) {
		t.Fatal("larger value rejected")
	}
	if n, _ := b.Int("MonitoredNodes"); n != 8 {
		t.Fatalf("MonitoredNodes = %d, want 8", n)
	}
}

// TestCollectiveSizeBound: a collective knowgget whose label, entity and
// value together are MaxCollectiveBytes is stored, one byte more is
// refused however it arrives (PutCollective, a collective Entry,
// AcceptGossip), and local knowledge is not bounded.
func TestCollectiveSizeBound(t *testing.T) {
	b := NewBase("K1")
	value := func(extra int) string { return strings.Repeat("v", MaxCollectiveBytes-len("L")-len("e")+extra) }
	if !b.PutCollective("L", "e", value(0)) {
		t.Error("PutCollective refused a knowgget of exactly MaxCollectiveBytes")
	}
	if b.PutCollective("L", "e", value(1)) {
		t.Error("PutCollective accepted one byte over MaxCollectiveBytes")
	}
	e := b.Entry("L", "e", true)
	if b.PutEntry(&e, value(1)) {
		t.Error("a collective Entry accepted one byte over MaxCollectiveBytes")
	}
	if kg, _ := b.Get("K1$L@e"); kg.Value != value(0) {
		t.Error("a refused put replaced the stored value")
	}
	if b.AcceptGossip("K2", Knowgget{Label: "L", Entity: "e", Value: value(1), Creator: "K2", Version: 1}) {
		t.Error("AcceptGossip accepted one byte over MaxCollectiveBytes")
	}
	if !b.AcceptGossip("K2", Knowgget{Label: "L", Entity: "e", Value: value(0), Creator: "K2", Version: 1}) {
		t.Error("AcceptGossip refused a knowgget of exactly MaxCollectiveBytes")
	}
	if !b.PutEntity("L", "local", value(1)) {
		t.Error("a local knowgget over MaxCollectiveBytes was refused")
	}
}
