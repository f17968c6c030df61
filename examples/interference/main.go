// Interference: reproduce the §7.2 analysis on a hidden-terminal-rich
// deployment. The global viewpoint of the merged trace lets us detect that
// a transmission was lost at the same moment a third node was transmitting
// — something no single vantage point can see — and estimate, per
// (sender, receiver) pair, the probability that simultaneous transmissions
// cause loss (Fig. 9).
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	// Many clients spread through the building on few channels: plenty of
	// stations that cannot hear each other but share receivers.
	cfg := scenario.Default()
	cfg.Seed = 11
	cfg.Pods, cfg.APs, cfg.Clients = 10, 10, 28
	cfg.Day = 90 * sim.Second
	cfg.FlowMeanGap = 3 * sim.Second // busy network: more overlap
	out, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The interference analysis runs as a streaming pass fed inline by
	// the merge: a sliding interval window answers the overlap queries, so
	// neither the jframe nor the exchange stream is retained.
	apSet := scenario.APSet(out.APs)
	pass := analysis.NewInterferencePass(50, func(m dot80211.MAC) bool { return apSet[m] })
	ccfg := core.DefaultConfig()
	ccfg.Passes = []core.Pass{pass}
	if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
		log.Fatal(err)
	}
	rep := pass.Finalize().(*analysis.InterferenceReport)

	fmt.Printf("(s,r) pairs with ≥50 packets: %d (of %d observed)\n",
		len(rep.Pairs), rep.PairsConsidered)
	fmt.Printf("average background loss rate: %.3f (paper: 0.12)\n", rep.AvgBackgroundLoss)
	fmt.Printf("pairs experiencing interference (Pi > 0): %.0f%% (paper: 88%%)\n",
		100*rep.FractionWithInterference)
	fmt.Printf("pairs with negative Pi (truncated): %.0f%% (paper: 11%%)\n",
		100*rep.NegativePiFraction)
	fmt.Printf("interfered senders that are APs: %.0f%% (paper: 56%%)\n\n",
		100*rep.SenderSplitAP)

	fmt.Println("interference loss rate X across pairs (Fig. 9 CDF):")
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.95, 1.0} {
		fmt.Printf("  p%-3.0f  X = %.4f\n", p*100, rep.XPercentile(p-1e-9))
	}

	// The worst pairs, like the paper's "few pairs with terrible
	// interference".
	fmt.Println("\nworst pairs:")
	n := len(rep.Pairs)
	for i := n - 3; i < n; i++ {
		if i < 0 {
			continue
		}
		ps := rep.Pairs[i]
		fmt.Printf("  %v → %v: n=%d nx=%d Pi=%.3f X=%.3f\n",
			ps.S, ps.R, ps.N, ps.NX, ps.Pi(), ps.X())
	}
}
