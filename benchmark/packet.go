package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"kalis"
	"kalis/internal/metrics"
	"kalis/internal/persist"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

// packetSeg is the packet segment of one run: the recorded scenarios
// and one long-lived node per scenario, warmed up by pass 0.
//
// The load is a closed loop from one producer goroutine: the next frame
// is offered only after HandleCapture returned for the previous one,
// which is the synchronous contract of the call (and, on a sharded
// node, the blocking-ingest contract cmd/kalis replays with).
type packetSeg struct {
	w         workload
	recs      []*recording
	nodes     []*kalis.Node
	sinks     []*alertSink
	stateDirs []string
	replicas  []*replica // traced runs only
	frames    int        // frames per pass, all scenarios
	lat       []int64    // per-frame latency of the current pass in replay order, ns
	sorted    []int64    // the same, ascending
	stamps    []stamps   // per-frame span boundaries of the current traced pass
	depthMax  int64      // deepest ingest backlog sampled in traced passes
	// wall and cpu time a pass in laps of chunkFrames frames; frameMin
	// is each frame's fastest replay. keep folds a pass into all three:
	// every pass replays the same frames in the same order.
	wall, cpu *laps
	frameMin  []int64
	// ingestStats is each node's ring accounting at the end of the
	// timed passes (zero on synchronous nodes).
	ingestStats []kalis.IngestStats
	// pass0Alerts is each scenario's alert count on the warm-up pass;
	// every later pass must reproduce it.
	pass0Alerts []int
	// heapBase is the live heap before the nodes were built, so that
	// heap_live_mb charges the nodes and not the recorded traces.
	heapBase uint64
	// passes counts replays so far; it sets the next capture-clock shift.
	passes int
}

// chunkFrames is the lap length of a pass: 4 to 60 ms of replay, short
// against the sandbox's slow spells (see laps).
const chunkFrames = 1024

// passResult is what one timed pass measured.
type passResult struct {
	Frames     int
	Wall       time.Duration
	CPU        time.Duration
	Mallocs    uint64
	Bytes      uint64
	DecodeErrs int
	P50, P995  float64 // µs
	P999       float64 // µs, 0 when the pass is too short to support it
	Alerts     []int
	Scores     []metrics.Score
	Delays     []float64
	Traced     bool
	Layers     layerSums // traced passes only
	Err        error     // a percentile the pass cannot support, a trace read error
}

// setupPacket records the workload's scenarios, builds their nodes and
// replays the warm-up pass (knowledge discovery, module activation) —
// everything setup_s covers, timed as one repetition of setup's laps.
func setupPacket(w workload, seed int64, episodes int, stateRoot string, traced bool, setup *laps) (*packetSeg, error) {
	s := &packetSeg{w: w, wall: newLaps(wallClock), cpu: newLaps(processCPU)}
	setup.start()
	for _, name := range w.Scenarios {
		rec, err := record(name, seed, episodes, setup.lap)
		if err != nil {
			return nil, err
		}
		s.recs = append(s.recs, rec)
		s.frames += rec.Frames
	}
	s.lat = make([]int64, 0, s.frames)
	if traced {
		s.stamps = make([]stamps, 0, s.frames)
	}
	s.heapBase = liveHeap()
	setup.lap()
	for range s.recs {
		dir := ""
		if w.Durable {
			var err error
			if dir, err = os.MkdirTemp(stateRoot, "state-"); err != nil {
				s.close()
				return nil, err
			}
			s.stateDirs = append(s.stateDirs, dir)
		}
		node, err := kalis.New(w.options(dir)...)
		if err != nil {
			s.close()
			return nil, err
		}
		sink := &alertSink{}
		node.OnAlert(sink.handle)
		s.nodes = append(s.nodes, node)
		s.sinks = append(s.sinks, sink)
		if traced {
			s.replicas = append(s.replicas, newReplica(node))
		}
		setup.lap()
	}
	warm := s.pass(false)
	if warm.Err == nil {
		setup.extend(s.wall.cur)
		warm.Err = setup.keep()
	}
	if warm.Err != nil {
		s.close()
		return nil, warm.Err
	}
	s.pass0Alerts = warm.Alerts
	return s, nil
}

// mark ends a lap of the pass under way on both clocks.
func (s *packetSeg) mark() {
	s.wall.lap()
	s.cpu.lap()
}

// keep folds the pass just replayed into the segment's best laps and
// per-frame minima.
func (s *packetSeg) keep() error {
	if err := s.wall.keep(); err != nil {
		return err
	}
	if err := s.cpu.keep(); err != nil {
		return err
	}
	if s.frameMin == nil {
		s.frameMin = append([]int64(nil), s.lat...)
		return nil
	}
	if len(s.lat) != len(s.frameMin) {
		return fmt.Errorf("a pass replayed %d frames, the ones before it %d", len(s.lat), len(s.frameMin))
	}
	for i, v := range s.lat {
		s.frameMin[i] = min(s.frameMin[i], v)
	}
	return nil
}

// close shuts the nodes and removes their state directories.
func (s *packetSeg) close() {
	for i, n := range s.nodes {
		if n != nil {
			_ = n.Close() // shutdown of a benchmark node; the durable tail checks Close where it matters
			s.nodes[i] = nil
		}
	}
	for _, r := range s.replicas {
		r.stop()
	}
	s.replicas = nil
	for _, d := range s.stateDirs {
		_ = os.RemoveAll(d) // scratch under .bench_build; a leftover is harmless
	}
	s.stateDirs = nil
}

// pass replays every scenario once into its node, the capture clock
// shifted past the previous pass, and measures it.
func (s *packetSeg) pass(traced bool) passResult {
	pass := s.passes
	s.passes++
	res := passResult{Traced: traced, Alerts: make([]int, len(s.recs)), Scores: make([]metrics.Score, len(s.recs))}
	s.lat = s.lat[:0]
	if traced {
		// The last traced pass's stamps outlive the control passes
		// that follow it: writeSpans reads them at the end of the run.
		s.stamps = s.stamps[:0]
	}
	for _, sink := range s.sinks {
		sink.take()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	s.wall.start()
	s.cpu.start()
	start := time.Now()
	for i := range s.recs {
		var derrs int
		var err error
		if traced {
			derrs, err = s.replayTraced(i, pass, start)
		} else {
			derrs, err = s.replay(i, pass)
		}
		res.DecodeErrs += derrs
		if err != nil && res.Err == nil {
			res.Err = err
		}
	}
	s.mark()
	res.Wall, res.CPU = s.wall.sum(), s.cpu.sum()
	runtime.ReadMemStats(&ms1)
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.Bytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Frames = len(s.lat)

	if traced {
		first := 0
		for i := range s.recs {
			n, err := s.replayReplicas(i, pass, first, start)
			if err != nil && res.Err == nil {
				res.Err = err
			}
			first += n
		}
		if first != len(s.stamps) && res.Err == nil {
			res.Err = fmt.Errorf("replicas saw %d frames, the node %d", first, len(s.stamps))
		}
		res.Layers = sumStamps(s.stamps)
	}
	s.sorted = append(s.sorted[:0], s.lat...)
	slices.Sort(s.sorted)
	for _, p := range []struct {
		q    float64
		into *float64
		must bool
	}{{0.50, &res.P50, true}, {0.995, &res.P995, true}, {0.999, &res.P999, false}} {
		v, err := percentile(s.sorted, p.q)
		if err != nil && p.must && res.Err == nil {
			res.Err = err
		}
		*p.into = float64(v) / 1e3
	}
	for i, rec := range s.recs {
		alerts := s.sinks[i].take()
		insts := rec.instancesAt(pass)
		res.Alerts[i] = len(alerts)
		res.Scores[i] = metrics.ScoreAlerts(insts, alerts, int64(pass))
		res.Delays = append(res.Delays, detectDelays(insts, alerts)...)
	}
	return res
}

// replay is the untraced inner loop: the clock is read twice per frame,
// around decode + HandleCapture, for the latency percentiles.
func (s *packetSeg) replay(i, pass int) (decodeErrs int, err error) {
	rec, node := s.recs[i], s.nodes[i]
	shift := rec.shift(pass)
	rd := trace.NewReader(bytes.NewReader(rec.Data))
	for {
		r, err := rd.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return decodeErrs, fmt.Errorf("%s: %w", rec.Scenario, err)
		}
		t0 := time.Now()
		c, derr := stack.Decode(r.Medium, r.Raw)
		if derr != nil {
			decodeErrs++
			continue
		}
		c.Time = r.Time.Add(shift)
		c.RSSI = r.RSSI
		node.HandleCapture(c)
		s.lat = append(s.lat, int64(time.Since(t0)))
		if len(s.lat)%chunkFrames == 0 {
			s.mark()
		}
	}
	node.DrainIngest()
	return decodeErrs, nil
}

// durableTail closes the durable nodes and times warm re-opens from
// their state directories. It reports how many recoveries were tried
// and the reasons any was not warm.
func (s *packetSeg) durableTail(reopens int) (persistStats, int, []string) {
	var st persistStats
	var failures []string
	attempted := 0
	var closeMs, recoverMs []float64
	for i, node := range s.nodes {
		dir := s.stateDirs[i]
		t := time.Now()
		err := node.Close()
		closeMs = append(closeMs, msSince(t))
		s.nodes[i] = nil
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: close: %v", s.recs[i].Scenario, err))
		}
		if fi, err := os.Stat(persist.SnapshotPath(dir)); err == nil {
			st.SnapshotBytes += float64(fi.Size())
		}
		for r := 0; r < reopens; r++ {
			attempted++
			t := time.Now()
			n, err := kalis.New(s.w.options(dir)...)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: re-open %d: %v", s.recs[i].Scenario, r, err))
				continue
			}
			recoverMs = append(recoverMs, msSince(t))
			if out := n.RecoveryOutcome(); out != "warm" {
				failures = append(failures, fmt.Sprintf("%s: re-open %d recovered %q, want warm", s.recs[i].Scenario, r, out))
			}
			st.RecoveredKnowggets = float64(len(n.Knowledge()))
			if err := n.Close(); err != nil {
				failures = append(failures, fmt.Sprintf("%s: close after re-open %d: %v", s.recs[i].Scenario, r, err))
			}
		}
	}
	st.CloseMs = median(closeMs)
	st.RecoverMs = median(recoverMs)
	return st, attempted, failures
}

// persistStats are the durable tail's per-layer figures.
type persistStats struct {
	SnapshotBytes, CloseMs, RecoverMs, RecoveredKnowggets float64
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// processCPU is the process's user+system CPU time, all threads, the
// garbage collector's included (microsecond resolution, kept current by
// the kernel between ticks).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB is what the nodes hold live: the heap now, less the heap
// before they were built.
func (s *packetSeg) liveHeapMB() float64 {
	return (float64(liveHeap()) - float64(s.heapBase)) / 1e6
}

// liveHeap is HeapAlloc after two forced collections (the second frees
// what the first one's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
