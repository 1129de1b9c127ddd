package eval

import (
	"reflect"
	"strings"
	"testing"
)

func TestDeliveryImpact(t *testing.T) {
	res, err := DeliveryImpact(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	baseWith, baseWithout := res.BaselineDelivery()
	finalWith, finalWithout := res.FinalDelivery()
	t.Logf("baseline %.2f/%.2f final %.2f/%.2f isolated after %v (%d alerts)",
		baseWith, baseWithout, finalWith, finalWithout, res.IsolatedAt, res.Alerts)

	if baseWith < 0.9 || baseWithout < 0.9 {
		t.Errorf("baseline delivery degraded: %.2f / %.2f", baseWith, baseWithout)
	}
	// The sinkhole must actually hurt: some attack-phase bucket drops
	// below half in both runs.
	dipped := false
	for _, v := range res.WithoutResponse[res.AttackStart:] {
		if v < 0.5 {
			dipped = true
		}
	}
	if !dipped {
		t.Error("sinkhole never degraded delivery")
	}
	// The paper's claim: the response restores the network; without it
	// the degradation persists.
	if finalWith < 0.9 {
		t.Errorf("defended network did not recover: %.2f", finalWith)
	}
	if finalWithout > 0.5 {
		t.Errorf("undefended network recovered by itself: %.2f", finalWithout)
	}
	if res.IsolatedAt == 0 || res.Alerts == 0 {
		t.Error("no isolation/alerts in the defended run")
	}

	var sb strings.Builder
	WriteDelivery(&sb, res)
	for _, want := range []string{"attack begins", "isolated after", "█"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestDeliveryIsAFunctionOfItsSeed pins that the delivery experiment
// is reproducible: the adaptive motes' parent choice must not depend on
// map iteration order, so repeated runs of one seed agree exactly.
func TestDeliveryIsAFunctionOfItsSeed(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		first, err := DeliveryImpact(Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run < 10; run++ {
			res, err := DeliveryImpact(Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, first) {
				t.Fatalf("seed %d, run %d: %+v, first run %+v", seed, run+1, res, first)
			}
		}
	}
}
