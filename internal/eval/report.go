package eval

import (
	"fmt"
	"io"
	"strings"
)

// WriteTable2 renders the Table II reproduction.
func WriteTable2(w io.Writer, res *Table2Result) {
	fmt.Fprintln(w, "Table II — average effectiveness and performance across the §VI-B scenarios")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-18s %12s %10s %10s %12s %10s\n",
		"", "Trad. IDS", "Snort", "Kalis", "", "")
	rows := map[string]Table2Row{}
	for _, r := range res.Rows {
		rows[r.System] = r
	}
	trad, snort, kalis := rows["Traditional IDS"], rows["Snort"], rows["Kalis"]
	fmt.Fprintf(w, "%-18s %11.0f%% %9.0f%% %9.0f%%\n", "Detection Rate",
		100*trad.DetectionRate, 100*snort.DetectionRate, 100*kalis.DetectionRate)
	fmt.Fprintf(w, "%-18s %11.0f%% %9.0f%% %9.0f%%\n", "Accuracy",
		100*trad.Accuracy, 100*snort.Accuracy, 100*kalis.Accuracy)
	fmt.Fprintf(w, "%-18s %11.4f%% %9.4f%% %9.4f%%\n", "CPU usage",
		trad.CPUPercent, snort.CPUPercent, kalis.CPUPercent)
	fmt.Fprintf(w, "%-18s %12.0f %10.0f %10.0f\n", "RAM usage (KB)",
		trad.RAMKB, snort.RAMKB, kalis.RAMKB)
	fmt.Fprintf(w, "%-18s %12.1f %10.1f %10.1f\n", "Work/packet",
		trad.WorkPerPacket, snort.WorkPerPacket, kalis.WorkPerPacket)
	fmt.Fprintf(w, "\n(Snort effectiveness covers the %d scenario(s) it could monitor; it is blind\n"+
		" to 802.15.4 traffic. Paper reference: DR 48/89/91%%, Acc 75/76/100%%,\n"+
		" CPU 0.22/6.3/0.19%%, RAM 23961/101978/13979 KB.)\n", snort.Applicable)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Per-scenario detail:")
	for _, r := range res.PerScenario {
		fmt.Fprintf(w, "  %-28s %-16s DR=%5.1f%% acc=%5.1f%% fp=%d cpu=%-12v heap=%dKB\n",
			r.Scenario, r.System, 100*r.Score.DetectionRate(), 100*r.Score.Accuracy(),
			r.Score.FalsePositives, r.Resources.CPUTime, r.Resources.HeapBytes/1024)
	}
}

// WriteFig8 renders the Figure 8 reproduction as a table plus
// ASCII bars.
func WriteFig8(w io.Writer, res *Fig8Result) {
	fmt.Fprintln(w, "Figure 8 — effectiveness: Kalis vs traditional IDS across all scenarios")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	bar := func(v float64) string {
		n := int(v*20 + 0.5)
		return strings.Repeat("█", n) + strings.Repeat("·", 20-n)
	}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-28s\n", r.Scenario)
		fmt.Fprintf(w, "  DR  Kalis %s %5.1f%%   Trad %s %5.1f%%\n",
			bar(r.KalisDR), 100*r.KalisDR, bar(r.TraditionalDR), 100*r.TraditionalDR)
		fmt.Fprintf(w, "  Acc Kalis %s %5.1f%%   Trad %s %5.1f%%\n",
			bar(r.KalisAcc), 100*r.KalisAcc, bar(r.TradAcc), 100*r.TradAcc)
	}
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-28s\n", "AVERAGES")
	fmt.Fprintf(w, "  DR  Kalis %s %5.1f%%   Trad %s %5.1f%%\n",
		bar(res.KalisAvgDR), 100*res.KalisAvgDR, bar(res.TradAvgDR), 100*res.TradAvgDR)
	fmt.Fprintf(w, "  Acc Kalis %s %5.1f%%   Trad %s %5.1f%%\n",
		bar(res.KalisAvgAcc), 100*res.KalisAvgAcc, bar(res.TradAvgAcc), 100*res.TradAvgAcc)
}

// WriteReactivity renders the §VI-C reproduction.
func WriteReactivity(w io.Writer, res *ReactivityResult) {
	fmt.Fprintln(w, "Reactivity (§VI-C) — empty initial configuration, selective forwarding on CTP")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "detection modules active at startup: %d\n", res.InitiallyActiveDetectionModules)
	fmt.Fprintf(w, "multi-hop topology discovered after: %v of traffic\n", res.TopologyKnownAfter)
	fmt.Fprintf(w, "selective-forwarding module active:  %v after start\n", res.ModuleActiveAfter)
	fmt.Fprintf(w, "first alert:                         %v after the first attack began\n", res.FirstAlertAfterEpisode)
	fmt.Fprintf(w, "detection rate from the beginning:   %.0f%%\n", 100*res.DetectionRate)
}

// WriteKnowledgeSharing renders the §VI-D reproduction.
func WriteKnowledgeSharing(w io.Writer, res *WormholeResult) {
	fmt.Fprintln(w, "Knowledge sharing (§VI-D) — colluding wormhole across two network portions")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "%-34s %14s %14s\n", "", "with sharing", "without")
	fmt.Fprintf(w, "%-34s %14d %14d\n", "wormhole alerts (both Kalis nodes)",
		res.WithWormholeAlerts, res.WithoutWormholeAlerts)
	fmt.Fprintf(w, "%-34s %14d %14d\n", "blackhole alerts",
		res.WithBlackholeAlerts, res.WithoutBlackholeAlerts)
	fmt.Fprintf(w, "%-34s %13.0f%% %13.0f%%\n", "detection rate",
		100*res.WithDetectionRate, 100*res.WithoutDetectionRate)
	fmt.Fprintf(w, "%-34s %13.0f%% %13.0f%%\n", "classification accuracy",
		100*res.WithAccuracy, 100*res.WithoutAccuracy)
}

// WriteModuleOverhead renders the per-scenario module cost breakdown.
func WriteModuleOverhead(w io.Writer, res *ModuleOverheadResult) {
	fmt.Fprintln(w, "Module overhead — mean per-invocation latency from kalis_module_packet_seconds")
	fmt.Fprintln(w, "(1 packet in 16 is timed and weighted 16: inv is an estimate, within 16 of the true count)")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	for _, sc := range res.Scenarios {
		fmt.Fprintf(w, "%s (%d packets, %.2f µs of module time per packet)\n",
			sc.Scenario, sc.Packets, sc.TotalMicrosPerPacket)
		for _, r := range sc.Rows {
			fmt.Fprintf(w, "  %-28s %8d inv %9.3f µs/inv %5.1f%%\n",
				r.Module, r.Invocations, r.MeanMicros, 100*r.Share)
		}
	}
}

// WriteCountermeasure renders the §VI-B1 response-action comparison.
func WriteCountermeasure(w io.Writer, res *CountermeasureResult) {
	fmt.Fprintln(w, "Countermeasure effectiveness (§VI-B1) — revocation driven by alerts")
	fmt.Fprintln(w, strings.Repeat("-", 78))
	fmt.Fprintf(w, "Kalis:           revoked %v — %d attacker(s), %d innocent(s), victim revoked: %v\n",
		res.Kalis.Revoked, res.Kalis.CorrectRevocations, res.Kalis.Collateral, res.Kalis.VictimRevoked)
	fmt.Fprintf(w, "Traditional IDS: revoked %v — %d attacker(s), %d innocent(s), victim revoked: %v\n",
		res.Traditional.Revoked, res.Traditional.CorrectRevocations, res.Traditional.Collateral,
		res.Traditional.VictimRevoked)
}
