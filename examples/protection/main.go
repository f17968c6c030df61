// Protection: reproduce the §7.3 analysis. APs keep 802.11g protection
// (CTS-to-self before every OFDM exchange) enabled for a full hour after
// last sensing an 802.11b client; with a practical one-minute policy, most
// of that protection is unnecessary and costs the affected 802.11g clients
// up to a factor of two in throughput (footnote 7). The merged trace's
// global view identifies the overprotective APs and who pays for them
// (Fig. 10).
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	cfg := scenario.Default()
	cfg.Seed = 5
	cfg.Pods, cfg.APs, cfg.Clients = 8, 8, 20
	cfg.BFraction = 0.25 // a mixed b/g population
	cfg.Day = 120 * sim.Second
	out, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The protection analysis runs as a streaming pass fed inline by the
	// merge, so the jframe stream is never retained.
	slotUS := out.Cfg.HourDur().US64()
	pass := analysis.NewProtectionPass(slotUS /* practical 1-"minute" timeout */, slotUS)
	ccfg := core.DefaultConfig()
	ccfg.Passes = []core.Pass{pass}
	if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
		log.Fatal(err)
	}
	rep := pass.Finalize().(*analysis.ProtectionReport)

	fmt.Println("hour  protected  overprotective  g-active  g-affected")
	for i, s := range rep.Slots {
		if s.ProtectedAPs == 0 && s.ActiveGClients == 0 {
			continue
		}
		fmt.Printf("%4d  %9d  %14d  %8d  %10d\n",
			i, s.ProtectedAPs, s.Overprotective, s.ActiveGClients, s.GOnOverprotected)
	}
	fmt.Printf("\npeak share of g clients behind overprotective APs: %.0f%% (paper: 25–50%%)\n",
		100*rep.PeakAffectedShare)
	fmt.Printf("potential throughput factor without protection: %.2f (paper: 1.98)\n",
		rep.PotentialSpeedup)
}
