package eval

import (
	"fmt"
	"slices"
	"testing"

	"kalis/internal/packet"
	"kalis/internal/trace"
)

// TestRecentCannotMoveAVerdict: the Data Store window decodes its
// records again only when asked, in Recent, and that decode interns
// the identities it meets into the process-wide handle table the
// detectors key their state by. Reading the whole window every 500
// frames while selective-forwarding/wsn and smurf/multi-hop replay in
// line must leave every alert as it was: victim, suspects and
// confidence.
func TestRecentCannotMoveAVerdict(t *testing.T) {
	for _, name := range []string{"selective-forwarding/wsn", "smurf/multi-hop"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("no scenario %q", name)
		}
		t.Run(name, func(t *testing.T) {
			run := sc.Build(1, 20)
			var recs []trace.Record
			run.Sniffer.Subscribe(func(c *packet.Captured) {
				if e, ok := c.Layers[0].(trace.Frame); ok {
					recs = append(recs, trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: e.AppendEncode(nil)})
				}
			})
			run.Sim.Run(run.End)

			alerts := func(peek bool) []string {
				ids, err := NewKalis("K1")(1)
				if err != nil {
					t.Fatal(err)
				}
				defer ids.Close()
				node := ids.(*kalisIDS).Node()
				peeked := 0
				for i := range recs {
					c, err := recs[i].Decode()
					if err != nil {
						t.Fatal(err)
					}
					ids.HandleCapture(c)
					if peek && i%500 == 499 {
						peeked += len(node.Recent(0))
					}
				}
				if peek {
					if peeked == 0 {
						t.Fatal("Recent decoded no frame")
					}
					t.Logf("%d frames, %d decoded again by Recent", len(recs), peeked)
				}
				var out []string
				for _, a := range node.Alerts() {
					out = append(out, fmt.Sprintf("%s victim %s suspects %v confidence %v", alertLine(a), a.Victim, a.Suspects, a.Confidence))
				}
				return out
			}
			quiet, peeked := alerts(false), alerts(true)
			if len(quiet) == 0 {
				t.Fatal("no alert to compare")
			}
			t.Logf("%d alerts", len(quiet))
			if !slices.Equal(quiet, peeked) {
				t.Errorf("alerts changed when Recent read the window:\nwithout: %q\nwith:    %q", quiet, peeked)
			}
		})
	}
}
