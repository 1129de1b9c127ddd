package snortlike

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
	"kalis/internal/proto/tcp"
)

var t0 = time.Unix(1500000000, 0).UTC()

func TestParseRuleFull(t *testing.T) {
	r, err := ParseRule(`alert icmp any any -> any any (msg:"ICMP flood"; itype:0; threshold:type both, track by_dst, count 25, seconds 5; classtype:attempted-dos; sid:1000001; rev:2;)`)
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if r.Action != ActionAlert || r.Proto != ProtoICMP || r.Msg != "ICMP flood" {
		t.Errorf("header: %+v", r)
	}
	if !r.ITypeSet || r.IType != 0 || r.SID != 1000001 || r.Rev != 2 || r.Class != "attempted-dos" {
		t.Errorf("options: %+v", r)
	}
	th := r.Threshold
	if th == nil || th.Type != "both" || th.Track != TrackByDst || th.Count != 25 || th.Seconds != 5 {
		t.Errorf("threshold: %+v", th)
	}
}

func TestParseRulePortsAndContent(t *testing.T) {
	r, err := ParseRule(`alert tcp any 1024 -> any 80 (msg:"probe"; content:"GET /admin"; content:"passwd"; dsize:>10; flags:S; sid:7;)`)
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if r.SrcPort != 1024 || r.DstPort != 80 {
		t.Errorf("ports: %+v", r)
	}
	if len(r.Contents) != 2 || r.Contents[1] != "passwd" {
		t.Errorf("contents: %v", r.Contents)
	}
	if r.DsizeOp != ">" || r.Dsize != 10 || r.Flags != "S" {
		t.Errorf("dsize/flags: %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	cases := []string{
		`bogus icmp any any -> any any (sid:1;)`,
		`alert martian any any -> any any (sid:1;)`,
		`alert icmp any any -> any any`,
		`alert icmp any any >> any any (sid:1;)`,
		`alert icmp any any -> any any (msg:"no sid";)`,
		`alert icmp any notaport -> any any (sid:1;)`,
		`alert icmp any any -> any any (itype:x; sid:1;)`,
		`alert icmp any any -> any any (threshold:type both, track by_dst; sid:1;)`,
	}
	for _, src := range cases {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("accepted bad rule %q", src)
		}
	}
}

func TestParseRulesSkipsComments(t *testing.T) {
	rules, err := ParseRules("# comment\n\nalert icmp any any -> any any (sid:5;)\n")
	if err != nil || len(rules) != 1 {
		t.Fatalf("rules=%d err=%v", len(rules), err)
	}
}

func mustCapture(t *testing.T, raw []byte) *packet.Captured {
	t.Helper()
	c, err := stack.Decode(packet.MediumWiFi, raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Time = t0
	return c
}

func TestEngineThresholdBoth(t *testing.T) {
	rules, err := ParseRules(`alert icmp any any -> any any (msg:"flood"; itype:0; threshold:type both, track by_dst, count 5, seconds 5; sid:42;)`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	for i := 0; i < 8; i++ {
		c := mustCapture(t, stack.BuildICMPEcho(src, dst, icmp.TypeEchoReply, 1, uint16(i), 64))
		c.Time = t0.Add(time.Duration(i) * 100 * time.Millisecond)
		e.HandleCapture(c)
	}
	alerts := e.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 (once per window)", len(alerts))
	}
	if alerts[0].SID != 42 || alerts[0].Dst != "10.0.0.2" {
		t.Errorf("alert = %+v", alerts[0])
	}
}

// TestThresholdSteadyAllocs: once a tracked key's event queue has grown
// to its window, counting another event allocates nothing — an event
// every 100 ms against a 5 s window, pruned on every event. A queue
// sliced from the front lost capacity with each prune, and every few
// events its append reallocated.
func TestThresholdSteadyAllocs(t *testing.T) {
	rules, err := ParseRules(`alert icmp any any -> any any (msg:"flood"; itype:0; threshold:type both, track by_dst, count 1000, seconds 5; sid:42;)`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	c := mustCapture(t, stack.BuildICMPEcho(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), icmp.TypeEchoReply, 1, 1, 64))
	at := t0
	event := func() {
		c.Time = at
		at = at.Add(100 * time.Millisecond)
		e.thresholdPass(rules[0], c)
	}
	for range 200 {
		event()
	}
	// One run of many events, after a warm-up run of as many:
	// AllocsPerRun truncates its average, which would hide an
	// allocation every few events.
	const events = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for range events {
			event()
		}
	})
	if n := len(e.thresholds[42][c.Dst]); n != 51 {
		t.Fatalf("the window holds %d events, want 51", n)
	}
	if allocs != 0 {
		t.Errorf("%d events on a warmed threshold queue allocate %v objects, want 0", events, allocs)
	}
}

func TestEngineFlagsMatch(t *testing.T) {
	rules, err := ParseRules(`alert tcp any any -> any 443 (msg:"syn"; flags:S; sid:43;)`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	e.HandleCapture(mustCapture(t, stack.BuildTCP(src, dst, 4000, 443, tcp.FlagSYN, 1, 0, 1, nil)))
	e.HandleCapture(mustCapture(t, stack.BuildTCP(src, dst, 4000, 443, tcp.FlagACK, 2, 1, 2, nil)))
	e.HandleCapture(mustCapture(t, stack.BuildTCP(src, dst, 4000, 80, tcp.FlagSYN, 3, 0, 3, nil))) // wrong port
	if got := len(e.Alerts()); got != 1 {
		t.Errorf("alerts = %d, want 1", got)
	}
}

func TestEngineContentMatch(t *testing.T) {
	rules, err := ParseRules(`alert udp any any -> any any (msg:"sig"; content:"EVIL"; sid:44;)`)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	e.HandleCapture(mustCapture(t, stack.BuildUDP(src, dst, 1, 2, 1, []byte("xxEVILxx"))))
	e.HandleCapture(mustCapture(t, stack.BuildUDP(src, dst, 1, 2, 2, []byte("benign"))))
	if got := len(e.Alerts()); got != 1 {
		t.Errorf("alerts = %d, want 1", got)
	}
}

func TestEngineBlindTo802154(t *testing.T) {
	rules, err := DefaultRuleset(50)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	raw := stack.BuildCTPData(3, 2, 3, 1, 0, 20, []byte{0x01, 0x01})
	c, err := stack.Decode(packet.MediumIEEE802154, raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Time = t0
	e.HandleCapture(c)
	if e.Invisible != 1 || e.Packets != 0 || len(e.Alerts()) != 0 {
		t.Errorf("802.15.4 frame not invisible: inv=%d pkts=%d", e.Invisible, e.Packets)
	}
}

func TestDefaultRulesetParsesAndCounts(t *testing.T) {
	rules, err := DefaultRuleset(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 204 { // 4 custom + 200 community
		t.Errorf("rules = %d, want 204", len(rules))
	}
	e := NewEngine(rules)
	if e.RuleCount() != 204 {
		t.Errorf("RuleCount = %d", e.RuleCount())
	}
}

func TestFloodAndSmurfRulesBothFire(t *testing.T) {
	// The signature baseline cannot distinguish flood from smurf: both
	// custom SIDs fire on the same reply burst.
	rules, err := DefaultRuleset(0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	for i := 0; i < 30; i++ {
		c := mustCapture(t, stack.BuildICMPEcho(src, dst, icmp.TypeEchoReply, 1, uint16(i), 64))
		c.Time = t0.Add(time.Duration(i) * 100 * time.Millisecond)
		e.HandleCapture(c)
	}
	sids := map[int]bool{}
	for _, a := range e.Alerts() {
		sids[a.SID] = true
	}
	if !sids[SIDICMPFlood] || !sids[SIDSmurf] {
		t.Errorf("sids fired: %v, want both %d and %d", sids, SIDICMPFlood, SIDSmurf)
	}
}

func TestEngineWorkAccounting(t *testing.T) {
	rules, err := DefaultRuleset(100)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules)
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	e.HandleCapture(mustCapture(t, stack.BuildUDP(src, dst, 1, 2, 1, nil)))
	if e.Packets != 1 || e.Evaluations != uint64(len(rules)) {
		t.Errorf("packets=%d evals=%d rules=%d", e.Packets, e.Evaluations, len(rules))
	}
}

func TestCommunityRulesAreValidSnortSubset(t *testing.T) {
	text := CommunityRules(500)
	if !strings.Contains(text, "content:") {
		t.Error("no content rules generated")
	}
	if _, err := ParseRules(text); err != nil {
		t.Fatalf("generated ruleset does not parse: %v", err)
	}
}
