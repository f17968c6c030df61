// Quickstart: simulate a small monitored 802.11 network, run the Jigsaw
// pipeline (bootstrap synchronization → frame unification → link/transport
// reconstruction), and look at what comes out.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	// 1. A small deployment: 4 sensor pods (16 radios), 4 APs, 8 clients,
	//    30 seconds representing a compressed "day" of workload.
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 8
	cfg.Day = 30 * sim.Second
	out, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated: %d radios captured %d records of %d transmissions\n",
		len(out.Traces), out.MonitorRecords, len(out.Truth))

	// 2. Run the Jigsaw pipeline over the per-radio traces. Monitors'
	//    clocks are off by up to ±50 ms with tens-of-ppm skew; the
	//    pipeline synchronizes them to microseconds using nothing but the
	//    frames they overheard in common. Analyses attach as streaming
	//    passes — here the Table-1 summary and a Figure-2 visualization
	//    window in the middle of the day — which is the one way to look at
	//    the merged streams: the pipeline keeps neither.
	ccfg := core.DefaultConfig()
	sum := analysis.NewSummaryPass()
	// 10 ms of trace at the diurnal peak (hour ~17 of the compressed day).
	vizAt := int64(cfg.Day.SecondsF() * 1e6 * 17 / 24)
	viz := analysis.NewVizPassRelative(vizAt, 10_000, 90)
	ccfg.Passes = []core.Pass{sum, viz}
	start := time.Now() //jiglint:allow wallclock (real merge timing for the demo output)
	res, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged in %v: %d jframes from %d events (%.2f observations each)\n",
		time.Since(start).Round(time.Millisecond), //jiglint:allow wallclock
		res.UnifyStats.JFrames, res.UnifyStats.Events,
		float64(res.UnifyStats.Unified)/float64(res.UnifyStats.JFrames))
	fmt.Printf("synchronization dispersion: p50=%dµs p90=%dµs p99=%dµs\n",
		res.Dispersion.Percentile(0.5), res.Dispersion.Percentile(0.9),
		res.Dispersion.Percentile(0.99))
	fmt.Printf("link layer: %d frame exchanges (%d attempts)\n",
		res.LLCStats.Exchanges, res.LLCStats.Attempts)
	fmt.Printf("transport: %d TCP flows, %d with complete handshakes\n",
		res.Transport.Stats.Flows, res.Transport.Stats.CompleteFlows)

	// 3. Each pass yields its report on Finalize: the trace summary (the
	//    paper's Table 1) ...
	fmt.Println()
	fmt.Print(sum.Finalize())

	// 4. ... and a slice of the synchronized trace (the paper's Figure 2).
	if res.UnifyStats.JFrames > 100 {
		fmt.Println()
		fmt.Print(viz.Finalize().(string))
	}
}
