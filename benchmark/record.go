package main

import (
	"bytes"
	"fmt"
	"time"

	"kalis/internal/attacks"
	"kalis/internal/eval"
	"kalis/internal/packet"
	"kalis/internal/trace"
)

// recording is one scenario recorded to raw frames: a Kalis trace
// stream held in memory, plus the ground truth the passes are scored
// against.
type recording struct {
	Scenario  string
	Attack    string
	Data      []byte // KTRC stream of raw frames
	Frames    int
	First     time.Time
	Span      time.Duration
	Instances []attacks.Instance
}

// simSlices is how many laps a scenario's simulation is timed in: a
// few milliseconds each at full size.
const simSlices = 64

// passGap separates consecutive passes of one trace on the capture
// clock: longer than every window, cooldown and flow timeout in the
// module library, so pass n+1 meets the state a long deployment would.
const passGap = time.Minute

// record runs the named eval scenario in the simulator and captures
// what the sniffer overhears as raw frames, as cmd/kalis-trace does:
// the outermost decoded layer is re-encoded to bytes. Ground-truth
// labels are left off the records (modules never see them, and reading
// them back would charge allocations to the replay that no capture
// source pays); scoring uses the instance list. The simulation runs in
// simSlices slices of virtual time with a lap after each, so that
// set-up is timed in short laps like everything else.
func record(name string, seed int64, episodes int, lap func()) (*recording, error) {
	sc, ok := eval.ScenarioByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	run := sc.Build(seed, episodes)
	lap()
	rec := &recording{Scenario: sc.Name, Attack: sc.Attack, Instances: run.Instances}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var werr error
	var last time.Time
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		raw := reencode(c)
		if raw == nil {
			return
		}
		if rec.Frames == 0 {
			rec.First = c.Time
		}
		last = c.Time
		rec.Frames++
		if err := w.Write(&trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: raw}); err != nil && werr == nil {
			werr = err
		}
	})
	from := run.Sim.Now()
	for k := 1; k <= simSlices; k++ {
		run.Sim.Run(from.Add(run.End.Sub(from) * time.Duration(k) / simSlices))
		lap()
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr != nil {
		return nil, fmt.Errorf("record %s: %w", sc.Name, werr)
	}
	if rec.Frames == 0 {
		return nil, fmt.Errorf("record %s: the sniffer overheard no encodable frame", sc.Name)
	}
	rec.Data = buf.Bytes()
	rec.Span = last.Sub(rec.First)
	return rec, nil
}

// reencode rebuilds the raw frame from the outermost decoded layer.
func reencode(c *packet.Captured) []byte {
	if len(c.Layers) == 0 {
		return nil
	}
	if e, ok := c.Layers[0].(interface{ Encode() []byte }); ok {
		return e.Encode()
	}
	return nil
}

// shift is how far pass n's capture clock runs ahead of the recording.
func (r *recording) shift(pass int) time.Duration {
	return time.Duration(pass) * (r.Span + passGap)
}

// instancesAt returns the ground truth moved onto pass n's clock.
func (r *recording) instancesAt(pass int) []attacks.Instance {
	d := r.shift(pass)
	out := make([]attacks.Instance, len(r.Instances))
	for i, inst := range r.Instances {
		inst.Start = inst.Start.Add(d)
		inst.End = inst.End.Add(d)
		out[i] = inst
	}
	return out
}
