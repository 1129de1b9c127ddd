package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
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

// TestRunTraceTornTail: -trace on a trace whose last record is torn
// prints the counts of the frames replayed before the tear, then fails.
func TestRunTraceTornTail(t *testing.T) {
	const frames = 20
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	t0 := time.Unix(1500000000, 0).UTC()
	for i := range frames {
		raw := stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)})
		if err := w.Write(&trace.Record{Time: t0.Add(time.Duration(i) * time.Second), Medium: packet.MediumIEEE802154, RSSI: -65, Raw: raw}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.ktrc")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := run([]string{"-trace", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("err = %v, want a corrupt-record error", err)
	}
	if want := fmt.Sprintf("replayed %d frames (0 skipped)", frames-1); !strings.Contains(sb.String(), want) {
		t.Errorf("output %q does not report %q", sb.String(), want)
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

// TestRunScenarioSharded covers the CLI's own share of a sharded run:
// -shards n reaches the node (every shard's ring shows on the admin
// endpoint) and the summary line counts the ALERT lines the shard
// workers printed. That a sharded node raises the in-line node's
// alerts is eval.TestExecutorsRaiseTheSameAlerts, every scenario at
// every shape.
func TestRunScenarioSharded(t *testing.T) {
	var scraped string
	telemetryHook = func(addr string) { scraped = get(t, "http://"+addr+"/metrics") }
	defer func() { telemetryHook = nil }()

	var sb strings.Builder
	if err := run([]string{"-scenario", "icmp-flood", "-episodes", "3", "-shards", "2", "-telemetry", "127.0.0.1:0"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	m := regexp.MustCompile(`raised (\d+) alerts`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" || m[1] != strconv.Itoa(strings.Count(out, " ALERT ")) {
		t.Errorf("summary %q does not count the ALERT lines of:\n%s", m, out)
	}
	for _, shard := range []string{"0", "1"} {
		if !strings.Contains(scraped, `kalis_ingest_queue_depth{shard="`+shard+`"}`) {
			t.Errorf("-shards 2: no ingest ring for shard %s on /metrics", shard)
		}
	}
	if strings.Contains(scraped, `kalis_ingest_queue_depth{shard="2"}`) {
		t.Error("-shards 2 built a third shard")
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
	// Module timing is sampled one packet in 16, but the first packet is a
	// sampled one: any module active from the first frame has a non-zero
	// count however short the run.
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
