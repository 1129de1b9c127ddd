package main

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"icmp-flood", "sinkhole/wsn", "attack=", "medium="} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("-list output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestRunNoArgs(t *testing.T) {
	var sb strings.Builder
	err := run(nil, &sb)
	if err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Errorf("err = %v, want usage error", err)
	}
}

func TestRunUnknownScenario(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-scenario", "no-such-attack"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("err = %v, want unknown-scenario error", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-no-such-flag"}, &sb); err == nil {
		t.Error("bad flag must return an error")
	}
}

func TestRunScenario(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scenario", "icmp-flood", "-episodes", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "captured") || !strings.Contains(out, "ALERT") {
		t.Errorf("scenario run output:\n%s", out)
	}
}

// TestRunScenarioSharded pins detection parity between the sharded and
// synchronous pipelines. The flood scenarios spoof many source
// identities, so source-hash sharding scatters each attack across
// every shard — parity needs the shared endpoint trackers
// (flow.Trackers), the window-level alert gate (one burst, one alert),
// reader-relative window counting (a shard ahead of the replay must
// not destroy a laggard's evidence), default-vs-evidence knowledge
// provenance (a shard's single-hop declaration must not clobber
// another's forwarding proof — smurf), and ingest skew pacing (module
// activation knowledge must not lag whole episodes behind a racing
// worker). The default run is -shards 1 (in-line dispatch); only an
// explicit -shards n takes this path.
func TestRunScenarioSharded(t *testing.T) {
	alerts := func(args ...string) string {
		t.Helper()
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		out := sb.String()
		m := regexp.MustCompile(`raised (\d+) alerts`).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no alert summary in output:\n%s", out)
		}
		return m[1]
	}
	for _, sc := range []string{"icmp-flood", "syn-flood", "smurf"} {
		sync := alerts("-scenario", sc, "-episodes", "3", "-shards", "1")
		for _, shards := range []string{"2", "4"} {
			sharded := alerts("-scenario", sc, "-episodes", "3", "-shards", shards)
			if sharded == "0" {
				t.Errorf("%s: sharded (-shards %s) run raised no alerts — endpoint evidence is not shared across shards", sc, shards)
			} else if sharded != sync {
				t.Errorf("%s: -shards %s raised %s alerts, synchronous run %s — want parity", sc, shards, sharded, sync)
			}
		}
	}
}

// TestRunScenarioWithTelemetry drives the full startup-shutdown path
// with -telemetry and scrapes the live admin endpoint after traffic
// replay: packet and module-latency metrics must be non-zero.
func TestRunScenarioWithTelemetry(t *testing.T) {
	var scraped, scrapedJSON string
	telemetryHook = func(addr string) {
		scraped = get(t, "http://"+addr+"/metrics")
		scrapedJSON = get(t, "http://"+addr+"/metrics.json")
	}
	defer func() { telemetryHook = nil }()

	var sb strings.Builder
	err := run([]string{"-scenario", "icmp-flood", "-episodes", "3", "-telemetry", "127.0.0.1:0"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "telemetry: serving http://") {
		t.Errorf("missing telemetry banner:\n%s", sb.String())
	}

	packets := promValue(t, scraped, "kalis_packets_total")
	if packets == "" || packets == "0" {
		t.Errorf("kalis_packets_total = %q, want non-zero; scrape:\n%s", packets, scraped)
	}
	if !regexp.MustCompile(`kalis_module_packet_seconds_count\{module="[^"]+"\} [1-9]`).
		MatchString(scraped) {
		t.Errorf("no non-zero module-latency metric in scrape:\n%s", scraped)
	}
	if !strings.Contains(scraped, `kalis_alerts_total{attack="icmp-flood"}`) {
		t.Errorf("no icmp-flood alert counter in scrape:\n%s", scraped)
	}

	var snap map[string]struct {
		Type  string      `json:"type"`
		Value interface{} `json:"value"`
	}
	if err := json.Unmarshal([]byte(scrapedJSON), &snap); err != nil {
		t.Fatalf("/metrics.json: %v\n%s", err, scrapedJSON)
	}
	if v, ok := snap["kalis_packets_total"]; !ok || v.Type != "counter" {
		t.Errorf("JSON snapshot missing kalis_packets_total: %+v", snap)
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// promValue extracts the sample value of an unlabeled metric from a
// Prometheus text exposition.
func promValue(t *testing.T, exposition, name string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).
		FindStringSubmatch(exposition)
	if m == nil {
		return ""
	}
	return m[1]
}
