// Package siem exports Kalis detection events for security information
// and event management systems: "Kalis ... can act as data source for
// multisource security information management (SIEM) systems" (§I).
// Alerts are serialized as NDJSON (one JSON object per line), the
// lingua franca of SIEM ingestion pipelines.
package siem

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"kalis/internal/core/module"
	"kalis/internal/packet"
)

// Event is the SIEM-facing form of an alert.
type Event struct {
	Timestamp  time.Time       `json:"timestamp"`
	Sensor     string          `json:"sensor"`
	Attack     string          `json:"attack"`
	Module     string          `json:"module"`
	Victim     packet.NodeID   `json:"victim,omitempty"`
	Suspects   []packet.NodeID `json:"suspects,omitempty"`
	Confidence float64         `json:"confidence"`
	Details    string          `json:"details,omitempty"`
}

// FromAlert converts an alert raised by the given sensor (Kalis node).
func FromAlert(sensor string, a module.Alert) Event {
	return Event{
		Timestamp:  a.Time,
		Sensor:     sensor,
		Attack:     a.Attack,
		Module:     a.Module,
		Victim:     a.Victim,
		Suspects:   a.Suspects,
		Confidence: a.Confidence,
		Details:    a.Details,
	}
}

// Exporter streams events to a writer as NDJSON. It is safe for
// concurrent use (alerts of a sharded node arrive from several workers).
type Exporter struct {
	sensor string

	mu      sync.Mutex
	w       io.Writer
	count   int
	lastErr error
}

// NewExporter creates an exporter writing events from the given sensor
// to w.
func NewExporter(sensor string, w io.Writer) *Exporter {
	return &Exporter{sensor: sensor, w: w}
}

// HandleAlert serializes one alert; wire it to a node with OnAlert.
// Write errors are retained and reported by Err (an IDS must not crash
// because its SIEM endpoint hiccuped).
func (e *Exporter) HandleAlert(a module.Alert) {
	data, err := json.Marshal(FromAlert(e.sensor, a))
	if err != nil {
		e.setErr(err)
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.w.Write(append(data, '\n')); err != nil {
		e.lastErr = fmt.Errorf("siem: write: %w", err)
		return
	}
	e.count++
}

func (e *Exporter) setErr(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastErr = err
}

// Count returns the number of events successfully exported.
func (e *Exporter) Count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// Err returns the most recent export error, if any.
func (e *Exporter) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastErr
}

// Read parses an NDJSON event stream (e.g. for a SIEM-side consumer or
// tests).
func Read(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			return out, fmt.Errorf("siem: parse: %w", err)
		}
		out = append(out, ev)
	}
	return out, nil
}
