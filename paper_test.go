//go:build !race

// Eight pipeline runs take some 80 s under the race detector against 4 s
// without it, and the table checks numbers, not concurrency: CI runs it in
// its own step without -race.

package jigsaw

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// paperRow is one number of the paper's evaluation read on the reduced
// scenario. When reproduces is set, [lo, hi] states the paper's claim at
// reduced scale; when it is not, the band brackets today's reading with a
// tolerance and why gives the known cause, or says it is unexplained.
// Neither kind is a golden: the goldens pin exact output elsewhere.
type paperRow struct {
	ref, metric, paper string
	got, lo, hi        float64
	reproduces         bool
	why                string
}

// TestPaperNumbers is the paper-vs-measured table: one pipeline run with
// every report's pass attached, the skew, search-window and resync-threshold
// ablations, Fig. 7's pod sweep and the two strawman baselines, all over the
// scenario setupBench simulates. `go test -run TestPaperNumbers -v .` prints
// the table.
func TestPaperNumbers(t *testing.T) {
	s := setupBench(t)
	out := s.out
	apSet := scenario.APSet(out.APs)
	hourUS := out.Cfg.HourDur().US64()

	def := core.DefaultConfig()
	sum := analysis.NewSummaryPass()
	cov := analysis.NewCoveragePass(out)
	ts := analysis.NewTimeSeriesPass(hourUS)
	intf := analysis.NewInterferencePass(100, func(m dot80211.MAC) bool { return apSet[m] })
	prot := analysis.NewProtectionPass(hourUS, hourUS)
	loss := analysis.NewTCPLossPass(5)
	// A jframe resyncs its members' clocks under exactly the unifier's rule;
	// unify.Stats.Resyncs counts the member clocks, this counts the jframes.
	var valid, resyncing float64
	sink := &core.Sink{OnJFrame: func(j *unify.JFrame) {
		if !j.Valid {
			return
		}
		valid++
		if j.Frame.UniqueForSync() && len(j.Instances) >= 2 && j.DispersionUS >= def.Unify.ResyncDispersionUS {
			resyncing++
		}
	}}
	res := s.run(t, def, sink, sum, cov, ts, intf, prot, loss)

	ablate := func(edit func(*unify.Config)) *core.Result {
		cfg := core.DefaultConfig()
		edit(&cfg.Unify)
		return s.run(t, cfg, nil)
	}
	skewOff := ablate(func(c *unify.Config) { c.SkewCompensation = false })
	win1ms := ablate(func(c *unify.Config) { c.SearchWindowUS = 1_000 })
	win100ms := ablate(func(c *unify.Config) { c.SearchWindowUS = 100_000 })
	thr1 := ablate(func(c *unify.Config) { c.ResyncDispersionUS = 1 })
	thr100 := ablate(func(c *unify.Config) { c.ResyncDispersionUS = 100 })

	pods, err := analysis.PodSweep(out, []int{out.Cfg.Pods * 3 / 4, out.Cfg.Pods / 2})
	if err != nil {
		t.Fatal(err)
	}
	syncP90, beaconP90, naiveCollapsed := baselines(t, s)

	st := sum.Finalize().(*analysis.TraceSummary)
	cr := cov.Finalize().(*analysis.CoverageReport)
	oracle, _ := analysis.OracleCoverage(out)
	slots := ts.Finalize().([]analysis.ActivitySlot)
	peak, night := 0, 0
	for i, sl := range slots {
		if i >= 10 && i <= 16 {
			peak = max(peak, sl.ActiveClients)
		}
		if i >= 1 && i <= 5 {
			night = max(night, sl.ActiveClients)
		}
	}
	ir := intf.Finalize().(*analysis.InterferenceReport)
	pr := prot.Finalize().(*analysis.ProtectionReport)
	over, protected := 0, 0
	for _, sl := range pr.Slots {
		over += sl.Overprotective
		protected += sl.ProtectedAPs
	}
	lr := loss.Finalize().(*analysis.TCPLossReport)
	inf := analysis.Inference(res.LLCStats)

	p := func(r *core.Result, q float64) float64 { return float64(r.Dispersion.Percentile(q)) }
	jf := func(r *core.Result) float64 { return float64(r.UnifyStats.JFrames) }
	rs := func(r *core.Result) float64 { return float64(r.UnifyStats.Resyncs) }
	const pct = 100
	up := math.Inf(1) // no bound worth stating
	const fig9 = "unexplained; 35 qualifying pairs"
	rows := []paperRow{
		{"Table 1", "error-event share (%)", "47", st.ErrorEventPct, 22, 36, false, "unexplained"},
		{"Table 1", "observations per transmission", "2.97", st.AvgInstances, 3.4, 4.6, false, "unexplained"},
		{"Fig. 4", "dispersion p90 (µs)", "< 10", p(res, 0.90), 0, 10, true, ""},
		{"Fig. 4", "dispersion p99 (µs)", "< 20", p(res, 0.99), 20, 30, false, "unexplained"},
		{"Fig. 6", "overall coverage (%)", "97", pct * cr.Overall, 90, 97, false, "unexplained"},
		{"Fig. 6", "APs at >= 95 % coverage (%)", "94", pct * cr.APsOver95, 85, 100, true, ""},
		{"Fig. 6", "clients at >= 95 % coverage (%)", "78", pct * cr.ClientsOver95, 70, 90, true, ""},
		{"§6", "oracle coverage (%)", "95", pct * oracle, 95, 100, true, ""},
		{"Fig. 7", "client coverage, 12 pods (%)", "92", pct * cr.ClientCoverage, 85, 92, false, "unexplained"},
		{"Fig. 7", "client coverage, 9 pods (%)", "71", pct * pods[0].ClientCoverage, 80, 95, false,
			"unexplained: fewer pods cost 1-4 points here, 21-24 in the paper"},
		{"Fig. 7", "client coverage, 6 pods (%)", "68", pct * pods[1].ClientCoverage, 75, 92, false,
			"unexplained: fewer pods cost 1-4 points here, 21-24 in the paper"},
		{"Fig. 7", "AP coverage, 12 pods (%)", "~94", pct * cr.APCoverage, 90, 100, true, ""},
		{"Fig. 7", "AP coverage, 9 pods (%)", "~94", pct * pods[0].APCoverage, 90, 100, true, ""},
		{"Fig. 7", "AP coverage, 6 pods (%)", "~94", pct * pods[1].APCoverage, 90, 100, true, ""},
		{"Fig. 8", "active clients, peak / night", "diurnal", float64(peak) / float64(max(night, 1)), 1.5, up, true, ""},
		{"Fig. 8", "broadcast airtime (%)", "~10", pct * analysis.BroadcastAirtimeShare(slots), 15, 27, false, "unexplained"},
		{"Fig. 9", "pairs with interference (%)", "88", pct * ir.FractionWithInterference, 50, 80, false, fig9},
		{"Fig. 9", "negative Pi truncated (%)", "11", pct * ir.NegativePiFraction, 20, 50, false, fig9},
		{"Fig. 9", "median interference loss X", "0.025", ir.XPercentile(0.5), 0.004, 0.01, false, fig9},
		{"Fig. 9", "p90 interference loss X", ">= 0.1", ir.XPercentile(0.9), 0.06, 0.12, false, fig9},
		{"Fig. 9", "background loss", "0.12", ir.AvgBackgroundLoss, 0.14, 0.22, false, fig9},
		{"Fig. 9", "AP share of interfered senders (%)", "56", pct * ir.SenderSplitAP, 20, 50, false, fig9},
		{"Fig. 10", "overprotective share of protected slots (%)", "common", pct * float64(over) / float64(max(protected, 1)), 30, 100, true, ""},
		{"Fig. 10", "peak affected g clients (%)", "25-50", pct * pr.PeakAffectedShare, 75, 100, false,
			"at most 4 active g clients per hourly slot: one slot with all behind overprotective APs reads 100 %"},
		{"fn 7", "protection overhead factor", "1.98", pr.PotentialSpeedup, 1.9, 2.05, true, ""},
		{"Fig. 11", "wireless share of TCP loss (%)", "dominant", pct * lr.WirelessShare, 5, 40, false,
			"14 losses over 75 flows are too few to split"},
		{"§5", "attempts needing inference (%)", "0.58", pct * inf.AttemptRate(), 0.6, 1.2, false, "unexplained"},
		{"§5", "exchanges needing inference (%)", "0.14", pct * inf.ExchangeRate(), 0.6, 1.3, false,
			"each inference adds one inferred attempt and one inferred exchange (llc's TestInferenceStepsTogether), " +
				"so this rate is at least the attempt rate; the paper's needs exchanges with several inferred attempts"},
		{"§4.2", "resyncing jframes (% of valid)", "-", pct * resyncing / valid, 6, 12, false, "no paper figure; watches resync volume"},

		{"§4.2", "skew off: p50 dispersion change (µs)", "worse", p(skewOff, 0.5) - p(res, 0.5), 1, up, true, ""},
		{"§4.2", "skew off: p90 dispersion change (µs)", "worse", p(skewOff, 0.9) - p(res, 0.9), 1, up, true, ""},
		{"§4.2", "skew off: p99 dispersion change (µs)", "worse", p(skewOff, 0.99) - p(res, 0.99), -14, -3, false, "unexplained"},
		{"§4.1", "1 ms window: extra jframes vs 10 ms", "splits groups", jf(win1ms) - jf(res), 1, up, true, ""},
		{"§4.1", "1 ms window: p99 change vs 10 ms (µs)", "worse", p(win1ms, 0.99) - p(res, 0.99), 1, up, true, ""},
		{"§4.1", "100 ms window: extra jframes vs 10 ms", "no gain", jf(win100ms) - jf(res), -up, 0, true, ""},
		{"§4.1", "100 ms window: p99 change vs 10 ms (µs)", "no gain", p(win100ms, 0.99) - p(res, 0.99), 0, up, true, ""},
		{"§4.2", "1 µs threshold: p90 change vs 10 µs (µs)", "10 µs best", p(thr1, 0.9) - p(res, 0.9), 1, up, true, ""},
		{"§4.2", "1 µs threshold: p99 change vs 10 µs (µs)", "10 µs best", p(thr1, 0.99) - p(res, 0.99), 1, up, true, ""},
		{"§4.2", "100 µs threshold: p90 change vs 10 µs (µs)", "10 µs best", p(thr100, 0.9) - p(res, 0.9), 1, up, true, ""},
		{"§4.2", "100 µs threshold: p99 change vs 10 µs (µs)", "10 µs best", p(thr100, 0.99) - p(res, 0.99), 1, up, true, ""},
		{"§4.2", "1 µs threshold: resyncs / 10 µs's", "more overhead", rs(thr1) / rs(res), 1.5, up, true, ""},
		{"§4.2", "100 µs threshold: resyncs / 10 µs's", "less overhead", rs(thr100) / rs(res), 0, 0.67, true, ""},

		{"§4.1", "Jigsaw bootstrap sync-error p90 (µs)", "-", syncP90, 130, 195, false, "no paper figure; the ratio below is the claim"},
		{"§4.1", "beacon-only / Jigsaw sync-error p90", "Jigsaw better", beaconP90 / syncP90, 1.1, up, true, ""},
		{"§4", "records a naive merge collapses (%)", "few", naiveCollapsed, 0, 10, true, ""},
		{"§4", "records Jigsaw collapses (%)", "most", pct * float64(res.UnifyStats.Unified-res.UnifyStats.JFrames) / float64(res.UnifyStats.Events), 50, 100, true, ""},
	}

	t.Logf("%-8s %-44s %-14s %10s  %-16s %-10s %s", "ref", "metric", "paper", "measured", "band", "reproduces", "why not")
	n := 0
	for _, r := range rows {
		band := fmt.Sprintf("[%g, %g]", r.lo, r.hi)
		t.Logf("%-8s %-44s %-14s %10.4g  %-16s %-10v %s", r.ref, r.metric, r.paper, r.got, band, r.reproduces, r.why)
		if r.reproduces {
			n++
		}
	}
	t.Logf("%d of %d rows reproduce the paper", n, len(rows))
	for _, r := range rows {
		t.Run(r.ref+" "+r.metric, func(t *testing.T) {
			if r.got < r.lo || r.got > r.hi {
				t.Errorf("%s %s = %g, outside [%g, %g] (paper %s; %s)", r.ref, r.metric, r.got, r.lo, r.hi, r.paper, r.why)
			}
		})
	}
}

// run executes the pipeline over the cached traces with the given passes
// and sink attached.
func (s *benchState) run(tb testing.TB, cfg core.Config, sink *core.Sink, passes ...core.Pass) *core.Result {
	tb.Helper()
	cfg.Passes = passes
	res, err := core.RunFrom(tracefile.NewBufferSet(s.traces), s.out.ClockGroups, cfg, sink)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// baselines measures the two strawmen on the scenario's traces: the p90
// sync error of Jigsaw's bootstrap and of beacon-only synchronization over
// the first 5 s, and the share of all records a mergecap-style merge
// collapses.
func baselines(t *testing.T, s *benchState) (syncP90, beaconP90, naiveCollapsed float64) {
	t.Helper()
	traces := make(map[int32][]tracefile.Record, len(s.traces))
	var window []tracefile.Record
	total := 0
	// Radio by radio in ID order, as timesync.CollectWindow groups them:
	// both synchronizers' offsets depend on the order of their input.
	for _, radio := range slices.Sorted(maps.Keys(s.traces)) {
		rs, err := tracefile.ReadAll(bytes.NewReader(s.traces[radio]))
		if err != nil {
			t.Fatal(err)
		}
		traces[radio] = rs
		total += len(rs)
		for _, r := range rs {
			if r.LocalUS < 5_000_000 {
				window = append(window, r)
			}
		}
	}
	p90 := func(offsets map[int32]int64) float64 {
		errs := baseline.SyncErrorUS(window, offsets)
		return float64(errs[len(errs)*9/10])
	}
	boot, err := timesync.Bootstrap(window, s.out.ClockGroups)
	if err != nil {
		t.Fatal(err)
	}
	_, collapsed := baseline.NaiveMerge(traces, 100)
	return p90(boot.OffsetUS), p90(baseline.BeaconSync(window).OffsetUS), 100 * float64(collapsed) / float64(total)
}
