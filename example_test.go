package jigsaw_test

import (
	"fmt"

	jigsaw "repro"
	"repro/internal/analysis"
	"repro/internal/sim"
)

// Example walks one small run through the pipeline: simulate a monitored
// 802.11 network, merge its per-radio traces with the Table 1 summary pass
// attached, and read the pass's report. Monitors' clocks start tens of
// milliseconds apart; the pipeline synchronizes them from the frames they
// overheard in common, unifies each transmission's observations into one
// jframe, reconstructs frame exchanges and, inside the summary pass, TCP
// flows.
func Example() {
	scfg := jigsaw.DefaultScenario()
	scfg.Pods, scfg.APs, scfg.Clients = 4, 4, 8
	scfg.Day = 30 * sim.Second
	out, err := jigsaw.Simulate(scfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	sum := jigsaw.NewSummaryPass()
	cfg := jigsaw.DefaultPipeline()
	cfg.Passes = []jigsaw.Pass{sum}
	if _, err := jigsaw.Merge(out, cfg); err != nil {
		fmt.Println(err)
		return
	}
	s := sum.Finalize().(*analysis.TraceSummary)
	fmt.Println("monitor events:", s.Events)
	fmt.Println("jframes:", s.JFrames)
	fmt.Printf("tcp flows (complete): %d (%d)\n", s.TCPFlows, s.CompleteFlows)
	// Output:
	// monitor events: 25604
	// jframes: 9113
	// tcp flows (complete): 7 (6)
}
