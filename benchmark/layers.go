package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"kalis"
	"kalis/internal/core/datastore"
	"kalis/internal/flow"
	"kalis/internal/ingest"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/telemetry"
	"kalis/internal/trace"
)

// stamps are one frame's span boundaries in a traced pass, nanoseconds
// since the pass began. Around the real node the spans tile the frame:
// trace.read [T0,T1) → proto.decode [T1,T2) → node.handle [T2,T3).
// What happens inside node.handle cannot be entered from outside, so
// once the pass's timed replay is over the same frames are decoded
// again and drive stand-alone replicas of the layers below it:
// datastore.append [R0,R1), flow.update [R1,R2), ingest.handoff
// [R2,R3). The replicas run apart from the node so that their cache
// and scheduler footprint stays out of the node's spans.
type stamps struct {
	Scenario int
	T, R     [4]int64
}

// layerSums are a traced pass's span durations summed over its frames.
type layerSums struct {
	Frames                                        int
	Read, Decode, Handle, Append, Update, Enqueue time.Duration
}

func sumStamps(st []stamps) layerSums {
	var s layerSums
	s.Frames = len(st)
	for i := range st {
		t, r := &st[i].T, &st[i].R
		s.Read += time.Duration(t[1] - t[0])
		s.Decode += time.Duration(t[2] - t[1])
		s.Handle += time.Duration(t[3] - t[2])
		s.Append += time.Duration(r[1] - r[0])
		s.Update += time.Duration(r[2] - r[1])
		s.Enqueue += time.Duration(r[3] - r[2])
	}
	return s
}

func (s *layerSums) add(o layerSums) {
	s.Frames += o.Frames
	s.Read += o.Read
	s.Decode += o.Decode
	s.Handle += o.Handle
	s.Append += o.Append
	s.Update += o.Update
	s.Enqueue += o.Enqueue
}

// perFrame is a summed duration as nanoseconds per frame.
func (s layerSums) perFrame(d time.Duration) float64 {
	if s.Frames == 0 {
		return 0
	}
	return float64(d) / float64(s.Frames)
}

// replica is a stand-alone copy of the layers under node.handle, built
// from their public constructors and sized like the node's own: a Data
// Store window, a flow table with the default features, and a two-shard
// ingest ring draining into sinks that do nothing.
type replica struct {
	store *datastore.Store
	flows *flow.Table
	pipe  *ingest.Pipeline
	// depth are the node's own per-shard backlog gauges (empty on a
	// synchronous node), re-resolved from its registry by name.
	depth []*telemetry.Gauge
}

type noopSink struct{}

func (noopSink) HandleBatch([]*packet.Captured) {}

func newReplica(node *kalis.Node) *replica {
	tel := node.Telemetry()
	capacity := int(telSnap(tel.Snapshot()).scalar("kalis_store_window_capacity")) / node.Shards()
	r := &replica{
		store: datastore.New(capacity),
		flows: flow.NewTable(flow.Config{}),
		pipe:  ingest.New(ingest.Config{Shards: 2, Block: true}, []ingest.Sink{noopSink{}, noopSink{}}, ingest.Metrics{}),
	}
	if node.Shards() > 1 {
		vec := tel.GaugeVec("kalis_ingest_queue_depth", "shard", "")
		for i := 0; i < node.Shards(); i++ {
			r.depth = append(r.depth, vec.With(strconv.Itoa(i)))
		}
	}
	return r
}

func (r *replica) stop() { r.pipe.Stop() }

// backlog is the node's current ingest backlog over all shards.
func (r *replica) backlog() int64 {
	var n int64
	for _, g := range r.depth {
		n += g.Value()
	}
	return n
}

// depthSampleEvery is the frame interval between backlog samples.
const depthSampleEvery = 4096

// replayTraced is the traced inner loop around the real node: four
// clock reads per frame, two more than the untraced loop.
func (s *packetSeg) replayTraced(i, pass int, base time.Time) (decodeErrs int, err error) {
	rec, node, rep := s.recs[i], s.nodes[i], s.replicas[i]
	shift := rec.shift(pass)
	rd := trace.NewReader(bytes.NewReader(rec.Data))
	now := func() int64 { return int64(time.Since(base)) }
	for n := 0; ; n++ {
		st := stamps{Scenario: i}
		st.T[0] = now()
		r, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return decodeErrs, fmt.Errorf("%s: %w", rec.Scenario, err)
		}
		st.T[1] = now()
		c, derr := stack.Decode(r.Medium, r.Raw)
		if derr != nil {
			decodeErrs++
			continue
		}
		c.Time = r.Time.Add(shift)
		c.RSSI = r.RSSI
		st.T[2] = now()
		node.HandleCapture(c)
		st.T[3] = now()
		s.stamps = append(s.stamps, st)
		s.lat = append(s.lat, st.T[3]-st.T[1])
		if n%depthSampleEvery == 0 {
			if d := rep.backlog(); d > s.depthMax {
				s.depthMax = d
			}
		}
	}
	node.DrainIngest()
	return decodeErrs, nil
}

// replayReplicas decodes scenario i's frames again and times the
// replica layers on them, filling the R stamps of the frames
// replayTraced recorded from s.stamps[first] on. It returns how many
// frames it filled.
func (s *packetSeg) replayReplicas(i, pass, first int, base time.Time) (int, error) {
	rec, rep := s.recs[i], s.replicas[i]
	shift := rec.shift(pass)
	rd := trace.NewReader(bytes.NewReader(rec.Data))
	now := func() int64 { return int64(time.Since(base)) }
	n := 0
	for {
		r, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return n, fmt.Errorf("%s: %w", rec.Scenario, err)
		}
		c, derr := stack.Decode(r.Medium, r.Raw)
		if derr != nil {
			continue
		}
		if first+n >= len(s.stamps) {
			return n, fmt.Errorf("%s: the replicas decoded more frames than the node was offered", rec.Scenario)
		}
		c.Time = r.Time.Add(shift)
		c.RSSI = r.RSSI
		st := &s.stamps[first+n]
		st.R[0] = now()
		_ = rep.store.Append(c) // fails only with a disk log, which the replica has none of
		st.R[1] = now()
		rep.flows.Update(c)
		st.R[2] = now()
		rep.pipe.Enqueue(c)
		st.R[3] = now()
		n++
	}
	rep.pipe.Drain()
	return n, nil
}

// decodeAllocs is heap allocations per stack.Decode call over the
// workload's frames, measured apart from the passes: the records are
// read first, so the count charges decode alone.
func (s *packetSeg) decodeAllocs() (float64, error) {
	var mallocs uint64
	frames := 0
	for _, rec := range s.recs {
		recs, err := trace.ReadAll(bytes.NewReader(rec.Data))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", rec.Scenario, err)
		}
		m0 := mallocCount()
		for _, r := range recs {
			if _, err := stack.Decode(r.Medium, r.Raw); err == nil {
				frames++
			}
		}
		mallocs += mallocCount() - m0
	}
	if frames == 0 {
		return 0, nil
	}
	return float64(mallocs) / float64(frames), nil
}

// span is one line of <out>.<workload>.spans.json. Spans of one frame
// share Frame (and Scenario); Parent is the ID of the enclosing span, 0
// for none.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Frame    int    `json:"frame"`
	Scenario string `json:"scenario"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// maxSpanFrames caps how many frames of the last traced pass are
// written out (seven spans each): enough to read the shape of a pass,
// small enough to open.
const maxSpanFrames = 20000

var spanNames = [6]string{"trace.read", "proto.decode", "node.handle",
	"replica.datastore.append", "replica.flow.update", "replica.ingest.handoff"}

// writeSpans writes the last traced pass's spans: per frame a root
// "frame" span over the real path and its three children, then the
// three replica spans (no parent: they run once the pass's timed
// replay is over). Start and end are nanoseconds since the pass began.
func (s *packetSeg) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	id := 0
	var werr error
	emit := func(sp span) {
		if werr == nil {
			werr = enc.Encode(sp)
		}
	}
	for n, st := range s.stamps {
		if n >= maxSpanFrames {
			break
		}
		sc := s.recs[st.Scenario].Scenario
		id++
		root := id
		emit(span{ID: root, Frame: n, Scenario: sc, Name: "frame", StartNs: st.T[0], EndNs: st.T[3]})
		for k, name := range spanNames {
			id++
			sp := span{ID: id, Frame: n, Scenario: sc, Name: name}
			if k < 3 {
				sp.Parent, sp.StartNs, sp.EndNs = root, st.T[k], st.T[k+1]
			} else {
				sp.StartNs, sp.EndNs = st.R[k-3], st.R[k-2]
			}
			emit(sp)
		}
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	return werr
}

// telSnap reads numbers out of a telemetry registry snapshot.
type telSnap map[string]telemetry.MetricSnapshot

func number(v interface{}) float64 {
	switch x := v.(type) {
	case uint64:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// scalar is a counter or gauge value; for a vec, the sum of its children.
func (t telSnap) scalar(name string) float64 {
	switch v := t[name].Value.(type) {
	case map[string]interface{}:
		sum := 0.0
		for _, c := range v {
			sum += number(c)
		}
		return sum
	default:
		return number(v)
	}
}

// child is one labelled child of a counter or gauge vec.
func (t telSnap) child(name, label string) float64 {
	if v, ok := t[name].Value.(map[string]interface{}); ok {
		return number(v[label])
	}
	return 0
}

// hist is a histogram's observation count and sum in seconds.
func (t telSnap) hist(name string) (count, sum float64) {
	if h, ok := t[name].Value.(telemetry.HistogramSnapshot); ok {
		return float64(h.Count), h.SumSeconds
	}
	return 0, 0
}

// histChildren is every labelled child of a histogram vec.
func (t telSnap) histChildren(name string) map[string]telemetry.HistogramSnapshot {
	out := map[string]telemetry.HistogramSnapshot{}
	if v, ok := t[name].Value.(map[string]interface{}); ok {
		for label, c := range v {
			if h, ok := c.(telemetry.HistogramSnapshot); ok {
				out[label] = h
			}
		}
	}
	return out
}
