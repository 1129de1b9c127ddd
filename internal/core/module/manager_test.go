package module

import (
	"fmt"
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// fakeModule is a scriptable module for manager tests.
type fakeModule struct {
	name      string
	kind      Kind
	watch     []string
	required  func(*knowledge.Base) bool
	ctx       *Context
	activated int
	packets   int
}

func (f *fakeModule) Name() string          { return f.name }
func (f *fakeModule) Kind() Kind            { return f.kind }
func (f *fakeModule) WatchLabels() []string { return f.watch }
func (f *fakeModule) Required(kb *knowledge.Base) bool {
	if f.required == nil {
		return true
	}
	return f.required(kb)
}
func (f *fakeModule) Activate(ctx *Context) { f.ctx = ctx; f.activated++ }
func (f *fakeModule) Deactivate()           { f.ctx = nil }
func (f *fakeModule) HandlePacket(c *packet.Captured) {
	f.packets++
	if f.ctx == nil {
		panic("packet to inactive module")
	}
}

func newTestManager(kd bool) (*Manager, *knowledge.Base) {
	kb := knowledge.NewBase("K1")
	return NewManager(kb, datastore.New(16), flow.NewTable(flow.Config{}), kd), kb
}

func TestDynamicActivation(t *testing.T) {
	m, kb := newTestManager(true)
	mod := &fakeModule{
		name:  "M",
		kind:  KindDetection,
		watch: []string{"Multihop"},
		required: func(kb *knowledge.Base) bool {
			v, ok := kb.Bool("Multihop")
			return ok && v
		},
	}
	m.Install(mod, nil)
	if len(m.Active()) != 0 {
		t.Fatal("module active before knowledge")
	}
	kb.PutBool("Multihop", true)
	if got := m.Active(); len(got) != 1 || got[0] != "M" {
		t.Fatalf("active = %v", got)
	}
	if mod.ctx == nil || !mod.ctx.KnowledgeDriven {
		t.Error("context not injected")
	}
	kb.PutBool("Multihop", false)
	if len(m.Active()) != 0 {
		t.Fatal("module not deactivated")
	}
	if mod.activated != 1 {
		t.Errorf("activations = %d", mod.activated)
	}
}

func TestTraditionalModeAllActive(t *testing.T) {
	m, kb := newTestManager(false)
	mod := &fakeModule{
		name:     "M",
		kind:     KindDetection,
		watch:    []string{"Multihop"},
		required: func(*knowledge.Base) bool { return false }, // never required
	}
	m.Install(mod, nil)
	if got := m.Active(); len(got) != 1 {
		t.Fatalf("traditional mode should force-activate: %v", got)
	}
	if mod.ctx.KnowledgeDriven {
		t.Error("context claims knowledge-driven in traditional mode")
	}
	kb.PutBool("Multihop", true) // knowledge changes must not matter
	if len(m.Active()) != 1 {
		t.Error("traditional activation changed with knowledge")
	}
}

func TestPacketRoutingOnlyToActive(t *testing.T) {
	m, kb := newTestManager(true)
	on := &fakeModule{name: "on", kind: KindSensing}
	off := &fakeModule{
		name: "off", kind: KindDetection,
		required: func(*knowledge.Base) bool { return false },
	}
	m.Install(on, nil)
	m.Install(off, nil)
	_ = kb

	c := &packet.Captured{Time: time.Unix(0, 0), Kind: packet.KindUDP}
	m.HandlePacket(c)
	m.HandlePacket(c)
	if on.packets != 2 || off.packets != 0 {
		t.Errorf("routing: on=%d off=%d", on.packets, off.packets)
	}
	pkts, invs, _ := m.Stats()
	if pkts != 2 || invs != 2 {
		t.Errorf("stats: packets=%d invocations=%d", pkts, invs)
	}
}

func TestAlertsCollectedAndFannedOut(t *testing.T) {
	m, _ := newTestManager(true)
	mod := &fakeModule{name: "M", kind: KindDetection}
	m.Install(mod, nil)
	var got []Alert
	m.OnAlert(func(a Alert) { got = append(got, a) })
	mod.ctx.Emit(Alert{Attack: "sybil", Module: "M"})
	if len(m.Alerts()) != 1 || len(got) != 1 {
		t.Fatalf("alerts = %d, callbacks = %d", len(m.Alerts()), len(got))
	}
	if got[0].Attack != "sybil" {
		t.Errorf("alert = %+v", got[0])
	}
}

// TestEmitWalksConsumersInPlace: an alert costs the consumer list no
// copy (the collected-alerts slice grows, amortized to nothing).
func TestEmitWalksConsumersInPlace(t *testing.T) {
	m, _ := newTestManager(true)
	seen := 0
	for i := 0; i < 3; i++ {
		m.OnAlert(func(Alert) { seen++ })
	}
	a := Alert{Attack: "sybil", Module: "M"}
	if n := testing.AllocsPerRun(1000, func() { m.emit(a) }); n != 0 {
		t.Errorf("emit allocates %v objects per alert, want 0", n)
	}
	if seen != 3*1001 {
		t.Errorf("consumers ran %d times, want %d", seen, 3*1001)
	}
}

// listenerModule is a fakeModule that asked for knowledge.
type listenerModule struct {
	fakeModule
	labels []string
	heard  []string
}

func (l *listenerModule) KnowledgeLabels() []string { return l.labels }
func (l *listenerModule) HandleKnowledge(kg knowledge.Knowgget) {
	if l.ctx == nil {
		panic("knowledge to inactive module")
	}
	l.heard = append(l.heard, kg.Label+"="+kg.Value)
}

// TestKnowledgeHandedToActiveListeners: a module that implements
// KnowledgeHandler gets every change of its labels (multilevel children
// and peers' knowggets included) in order, only while active, and a
// change that both activates it and concerns it is handed over after
// Activate.
func TestKnowledgeHandedToActiveListeners(t *testing.T) {
	m, kb := newTestManager(true)
	mod := &listenerModule{
		fakeModule: fakeModule{name: "L", kind: KindDetection, watch: []string{"Wanted"},
			required: func(kb *knowledge.Base) bool { v, _ := kb.Bool("Wanted"); return v }},
		labels: []string{"News", "Wanted"},
	}
	m.Install(mod, nil)
	kb.Put("News", "missed") // inactive: not handed over
	kb.PutBool("Wanted", true)
	kb.Put("News.sub", "1")
	kb.AcceptGossip("K2", knowledge.Knowgget{Label: "News", Value: "2", Creator: "K2", Version: 1})
	kb.Put("Other", "x")
	kb.PutBool("Wanted", false)
	kb.Put("News", "late")
	want := "[Wanted=true News.sub=1 News=2]"
	if got := fmt.Sprint(mod.heard); got != want {
		t.Errorf("heard %v, want %v", got, want)
	}
	if h := m.Health(); h["L"] != "inactive" {
		t.Errorf("Health = %v", h)
	}
}

// TestOneSubscriptionPerLabel: however many modules watch or listen to
// a label, the manager subscribes to it once, and one change costs each
// watching module one Required.
func TestOneSubscriptionPerLabel(t *testing.T) {
	m, kb := newTestManager(true)
	evaluated := 0
	for _, name := range []string{"A", "B", "C"} {
		m.Install(&listenerModule{
			fakeModule: fakeModule{name: name, kind: KindDetection, watch: []string{"Multihop", "Mediums"},
				required: func(*knowledge.Base) bool { evaluated++; return false }},
			labels: []string{"Multihop"},
		}, nil)
	}
	if len(m.watches) != 2 {
		t.Errorf("%d subscriptions for 2 distinct labels", len(m.watches))
	}
	evaluated = 0
	kb.PutBool("Multihop", true)
	if evaluated != 3 {
		t.Errorf("one change of a label three modules watch cost %d Required calls, want 3", evaluated)
	}
}

func TestInstalledOrderAndParams(t *testing.T) {
	m, _ := newTestManager(true)
	a := &fakeModule{name: "A", kind: KindSensing}
	b := &fakeModule{name: "B", kind: KindDetection}
	m.Install(a, map[string]string{"k": "v"})
	m.Install(b, nil)
	inst := m.Installed()
	if len(inst) != 2 || inst[0] != "A" || inst[1] != "B" {
		t.Errorf("installed = %v", inst)
	}
	if a.ctx.Params["k"] != "v" {
		t.Error("params not injected")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("M", func(params map[string]string) (Module, error) {
		return &fakeModule{name: "M", kind: KindSensing}, nil
	})
	mod, err := r.New("M", nil)
	if err != nil || mod.Name() != "M" {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.New("nope", nil); err == nil {
		t.Error("unknown module instantiated")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "M" {
		t.Errorf("names = %v", names)
	}
}

func TestKindString(t *testing.T) {
	if KindSensing.String() != "sensing" || KindDetection.String() != "detection" {
		t.Error("kind strings")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind string")
	}
}

// flipper is a sensing module that stores a knowgget when it sees the
// packet captured at flipAt — a mid-batch knowledge change.
type flipper struct {
	fakeModule
	kb     *knowledge.Base
	flipAt time.Time
	value  bool
}

func (f *flipper) HandlePacket(c *packet.Captured) {
	f.fakeModule.HandlePacket(c)
	if c.Time.Equal(f.flipAt) {
		f.kb.PutBool("Multihop", f.value)
	}
}

// TestBatchDispatchMatchesPerPacket: a batch reaches the same modules,
// packet for packet, as the same packets handed over one at a time — a
// knowledge flip on packet i (de)activates a module from packet i+1 on,
// not from the next batch — and the invocation count stays exact.
func TestBatchDispatchMatchesPerPacket(t *testing.T) {
	t0 := time.Unix(1500000000, 0)
	batch := make([]*packet.Captured, 8)
	for i := range batch {
		batch[i] = &packet.Captured{Time: t0.Add(time.Duration(i) * time.Second), Kind: packet.KindUDP}
	}
	for _, activate := range []bool{true, false} {
		run := func(feed func(*Manager)) (seen int, invocations uint64) {
			m, kb := newTestManager(true)
			kb.PutBool("Multihop", !activate)
			sensor := &flipper{fakeModule: fakeModule{name: "S", kind: KindSensing},
				kb: kb, flipAt: batch[2].Time, value: activate}
			det := &fakeModule{name: "D", kind: KindDetection, watch: []string{"Multihop"},
				required: func(kb *knowledge.Base) bool { v, _ := kb.Bool("Multihop"); return v }}
			m.Install(sensor, nil)
			m.Install(det, nil)
			feed(m)
			_, invocations, _ = m.Stats()
			return det.packets, invocations
		}
		onePacket, oneInv := run(func(m *Manager) {
			for _, c := range batch {
				m.HandlePacket(c)
			}
		})
		batched, batchInv := run(func(m *Manager) { m.HandleBatch(batch) })
		want := 5 // packets 3..7 after the flip on packet 2
		if !activate {
			want = 3 // packets 0..2 up to and including the flip
		}
		if onePacket != want || batched != want {
			t.Errorf("activate=%v: detection module saw %d packets one at a time, %d batched, want %d",
				activate, onePacket, batched, want)
		}
		if batchInv != oneInv || batchInv != uint64(len(batch)+want) {
			t.Errorf("activate=%v: invocations %d batched, %d one at a time, want %d",
				activate, batchInv, oneInv, len(batch)+want)
		}
	}
}
