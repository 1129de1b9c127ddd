package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

func TestFanoutDeliversInSubscriptionOrder(t *testing.T) {
	var f fanout[int]
	var got []int
	for i := 1; i <= 3; i++ {
		f.subscribe(func(v int) { got = append(got, 10*v+i) })
	}
	f.publish(1)
	f.publish(2)
	if want := []int{11, 12, 13, 21, 22, 23}; !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order = %v, want %v", got, want)
	}
}

// TestFanoutHandlerMayReenter: no lock is held during delivery, so a
// handler may publish on, and subscribe to, the fan-out delivering to
// it. The nested event is delivered before the outer one reaches the
// next subscriber, and a handler subscribed mid-delivery sees only
// later events.
func TestFanoutHandlerMayReenter(t *testing.T) {
	var f fanout[int]
	var got []string
	saw := func(who string, v int) { got = append(got, fmt.Sprint(who, v)) }
	f.subscribe(func(v int) {
		saw("first", v)
		if v == 1 {
			f.subscribe(func(v int) { saw("late", v) })
			f.publish(2)
		}
	})
	f.subscribe(func(v int) { saw("second", v) })
	f.publish(1)
	want := []string{"first1", "first2", "second2", "late2", "second1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-entrant delivery = %v, want %v", got, want)
	}
}

// alarm is a detection module that raises one alert per packet.
type alarm struct{ emit func(module.Alert) }

func (*alarm) Name() string                      { return "alarm" }
func (*alarm) Kind() module.Kind                 { return module.KindDetection }
func (*alarm) WatchLabels() []string             { return nil }
func (*alarm) Required(*knowledge.Base) bool     { return true }
func (a *alarm) Activate(ctx *module.Context)    { a.emit = ctx.Emit }
func (*alarm) Deactivate()                       {}
func (a *alarm) HandlePacket(c *packet.Captured) { a.emit(module.Alert{Attack: "alarm", Time: c.Time}) }

// newAlarmNode builds a node whose every packet raises an alert (one
// alarm instance per shard) beside the sensing modules.
func newAlarmNode(t *testing.T, cfg Config) *Kalis {
	t.Helper()
	cfg.NodeID, cfg.KnowledgeDriven, cfg.ConfigText = "K1", true, sensingOnly
	k, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.Registry().Register("alarm", func(map[string]string) (module.Module, error) { return &alarm{}, nil })
	if err := k.Install("alarm", nil); err != nil {
		t.Fatal(err)
	}
	return k
}

// beacon is the i-th frame of a test feed: eight sources, so a sharded
// node spreads them, one second apart.
func beacon(t *testing.T, i int) *packet.Captured {
	return mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(uint16(2+i%8), 1, 10, uint8(i)),
		t0.Add(time.Duration(i)*time.Second), float64(-60-i%20))
}

// TestCloseEndsDelivery: the flows Close flushes still reach
// OnFlowRecord (examples/flowexport prints them), and once Close has
// returned nothing reaches any consumer or the publish counter.
func TestCloseEndsDelivery(t *testing.T) {
	k := newAlarmNode(t, Config{})
	var alerts, changes, records int
	k.OnAlert(func(module.Alert) { alerts++ })
	k.OnKnowledge(func(knowledge.Knowgget) { changes++ })
	k.OnFlowRecord(func(flow.Record) { records++ })
	for i := 0; i < 16; i++ {
		k.HandleCapture(beacon(t, i))
	}
	flows := k.primary().table.Len()
	if alerts != 16 || changes == 0 || flows == 0 || records != 0 {
		t.Fatalf("before Close: %d alerts, %d changes, %d live flows, %d records", alerts, changes, flows, records)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if records != flows {
		t.Errorf("Close flushed %d flows, OnFlowRecord saw %d", flows, records)
	}

	published := k.Telemetry().Snapshot()["kalis_bus_publishes_total"].Value
	alerts, changes, records = 0, 0, 0
	k.KB().Put("AfterClose", "1")
	k.HandleCapture(beacon(t, 16))
	k.alerts.publish(module.Alert{Attack: "after-close"})
	k.records.publish(flow.Record{})
	if alerts != 0 || changes != 0 || records != 0 {
		t.Errorf("after Close: %d alerts, %d changes, %d records delivered", alerts, changes, records)
	}
	if after := k.Telemetry().Snapshot()["kalis_bus_publishes_total"].Value; !reflect.DeepEqual(after, published) {
		t.Errorf("publish counter moved after Close: %v -> %v", published, after)
	}
}

// TestOnAlertWhileDispatching registers consumers while both workers of
// a 2-shard node are raising alerts (run it under -race): the consumer
// registered before the traffic sees every alert, a later one a suffix.
func TestOnAlertWhileDispatching(t *testing.T) {
	k := newAlarmNode(t, Config{Shards: 2, IngestBlock: true})
	const n = 2000
	var first atomic.Uint64
	k.OnAlert(func(module.Alert) { first.Add(1) })
	frames := make([]*packet.Captured, n)
	for i := range frames {
		frames[i] = beacon(t, i)
	}
	var feed sync.WaitGroup
	feed.Add(1)
	go func() {
		defer feed.Done()
		for _, c := range frames {
			k.HandleCapture(c)
		}
	}()
	late := make([]atomic.Uint64, 32)
	for i := range late {
		k.OnAlert(func(module.Alert) { late[i].Add(1) })
	}
	feed.Wait()
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if got := first.Load(); got != n {
		t.Errorf("first consumer saw %d of %d alerts", got, n)
	}
	for i := 1; i < len(late); i++ {
		if late[i].Load() > late[i-1].Load() {
			t.Errorf("consumer %d (registered later) saw %d alerts, consumer %d saw %d",
				i, late[i].Load(), i-1, late[i-1].Load())
		}
	}
}

// TestPublishCounterCountsEveryEvent: kalis_bus_publishes_total carries
// exactly the three topic labels it had on the event bus and counts one
// per alert, Knowledge Base change and exported flow record; no other
// kalis_bus_* series is left.
func TestPublishCounterCountsEveryEvent(t *testing.T) {
	for _, cfg := range []Config{{}, {Async: true}, {Shards: 2, IngestBlock: true}} {
		k := newAlarmNode(t, cfg)
		var alerts, changes, records atomic.Uint64
		k.OnAlert(func(module.Alert) { alerts.Add(1) })
		k.OnKnowledge(func(knowledge.Knowgget) { changes.Add(1) })
		k.OnFlowRecord(func(flow.Record) { records.Add(1) })
		for i := 0; i < 40; i++ {
			k.HandleCapture(beacon(t, i))
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		if alerts.Load() != 40 || changes.Load() == 0 || records.Load() == 0 {
			t.Fatalf("%+v: %d alerts, %d changes, %d records: nothing to compare",
				cfg, alerts.Load(), changes.Load(), records.Load())
		}
		snap := k.Telemetry().Snapshot()
		want := map[string]interface{}{
			"detection":    alerts.Load(),
			"knowledge":    changes.Load(),
			"flow.records": records.Load(),
		}
		if got := snap["kalis_bus_publishes_total"].Value; !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: kalis_bus_publishes_total = %v, want %v", cfg, got, want)
		}
		for name := range snap {
			if strings.HasPrefix(name, "kalis_bus_") && name != "kalis_bus_publishes_total" {
				t.Errorf("%+v: series %s outlived the event bus", cfg, name)
			}
		}
	}
}
