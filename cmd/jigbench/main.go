// Command jigbench regenerates every table and figure of the paper's
// evaluation end-to-end at a chosen scale and prints paper-vs-measured for
// each, in the order they appear in the paper.
//
// With -sweep it becomes a batch harness instead: it fans a list of
// scenario configurations (the cartesian product of deployments, 802.11b
// fractions and seeds) across a worker pool, runs the full
// simulate-merge-analyze pipeline on each, and emits one JSON row per
// scenario — the config-sweep workload for studying how the system behaves
// across operating points.
//
// Usage:
//
//	jigbench                 # default reduced scale (fast)
//	jigbench -paperscale     # 39 pods / 156 radios / 39 APs
//	jigbench -fig 9          # a single figure
//	jigbench -workers 8      # pipeline parallelism (0 = GOMAXPROCS)
//
//	jigbench -sweep -sweep-pods 6,9,12 -sweep-bfrac 0.1,0.3 \
//	         -sweep-seeds 1,2,3 -sweep-day 60s -workers 4
//
// -sweep-cc adds a congestion-control axis to the grid: a pipe-separated
// list of per-flow CC mixes ("fixed|reno=1,cubic=1,bbr=1"), each mix a
// weighted spec as accepted by cc.ParseMixSpec. Non-fixed mixes run over
// the bounded bottleneck queue so the controllers contend for real buffer,
// and each JSON row reports the mix, per-algorithm goodput and the CC
// fingerprinter's accuracy against ground truth.
//
// Throughput, heap and allocation measurements live in bench/ (`bash
// bench/run.sh`), not here.
//
// Progress logs and sweep rows report real elapsed time, so wall-clock
// reads here are deliberate.
//jiglint:allow wallclock

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/unify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jigbench: ")
	var (
		paperscale = flag.Bool("paperscale", false, "full 39-pod deployment")
		fig        = flag.String("fig", "all", "which figure/table: 2,4,6,7,8,9,10,11,table1,all")
		seed       = flag.Int64("seed", 3, "seed")
		workers    = flag.Int("workers", 0, "pipeline workers in figure mode / pool size in sweep mode (0 = GOMAXPROCS)")

		sweep        = flag.Bool("sweep", false, "batch mode: sweep scenario configs, one JSON row each")
		sweepPods    = flag.String("sweep-pods", "6,9,12", "comma-separated pod counts")
		sweepAPs     = flag.String("sweep-aps", "", "AP counts parallel to -sweep-pods (default: same as pods)")
		sweepClients = flag.String("sweep-clients", "", "client counts parallel to -sweep-pods (default: 2x pods)")
		sweepBFrac   = flag.String("sweep-bfrac", "0.3", "comma-separated 802.11b client fractions")
		sweepSeeds   = flag.String("sweep-seeds", "1,2,3", "comma-separated seeds")
		sweepDay     = flag.Duration("sweep-day", 60*time.Second, "compressed day per scenario")
		sweepCC      = flag.String("sweep-cc", "fixed", "pipe-separated CC mixes, e.g. 'fixed|reno=1,cubic=1,bbr=1'")
		sweepQueue   = flag.Int("sweep-queue-pkts", 32, "bottleneck FIFO depth for non-fixed CC mixes")
		sweepBtl     = flag.Float64("sweep-bottleneck-mbps", 30, "bottleneck drain rate for non-fixed CC mixes")
		sweepMobile  = flag.String("sweep-mobility", "0", "comma-separated mobile-client counts (adds a mobility axis; rows gain handoff metrics)")
		sweepHyst    = flag.Float64("sweep-roam-hysteresis-db", 0, "roam hysteresis for mobile scenarios (0 = default)")
		sweepScale   = flag.String("sweep-scale", "", "comma-separated scale presets (default,paper,building) replacing the -sweep-pods deployment axis; rows gain a scale field")
		sweepSpill   = flag.String("sweep-spill-root", "", "stream each sweep scenario's traces through a subdirectory of this root (out-of-core sweeps; removed after measuring)")
		mergeWorkers = flag.Int("merge-workers", 1, "pipeline workers inside each sweep scenario (1 keeps the pool unoversubscribed)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file before exiting")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}

	if *sweep {
		runSweep(sweepArgs{
			pods: *sweepPods, aps: *sweepAPs, clients: *sweepClients,
			bfrac: *sweepBFrac, seeds: *sweepSeeds, day: *sweepDay,
			ccMixes: *sweepCC, queuePkts: *sweepQueue, btlMbps: *sweepBtl,
			mobility: *sweepMobile, roamHystDB: *sweepHyst,
			scales: *sweepScale, spillRoot: *sweepSpill,
			poolWorkers: *workers, mergeWorkers: *mergeWorkers,
		})
		return
	}
	runFigures(*paperscale, *fig, *seed, *workers)
}

// writeHeapProfile dumps an allocation snapshot for -memprofile. A GC
// first makes the live set exact (the heap profile is otherwise up to one
// cycle stale).
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// sweepArgs collects the batch-mode flag values.
type sweepArgs struct {
	pods, aps, clients string
	bfrac, seeds       string
	ccMixes            string
	queuePkts          int
	btlMbps            float64
	mobility           string
	roamHystDB         float64
	scales             string
	spillRoot          string
	day                time.Duration
	poolWorkers        int
	mergeWorkers       int
}

// sweepRow is one scenario's JSON record: its operating point plus the
// headline metrics of every pipeline stage.
type sweepRow struct {
	Pods      int     `json:"pods"`
	Radios    int     `json:"radios"`
	APs       int     `json:"aps"`
	Clients   int     `json:"clients"`
	BFraction float64 `json:"b_fraction"`
	Seed      int64   `json:"seed"`
	DaySec    float64 `json:"day_sec"`
	CCMix     string  `json:"cc_mix"`
	// Scale names the -sweep-scale preset the row ran at ("" on
	// pods-axis rows).
	Scale string `json:"scale,omitempty"`
	// MobileClients is the scenario's mobility operating point; the
	// handoff fields below are zero/absent semantics like the CC fields:
	// on a mobility row (MobileClients > 0) a zero means "measured,
	// nothing happened".
	MobileClients int `json:"mobile_clients"`

	MonitorRecords  int64   `json:"monitor_records"`
	Transmissions   int     `json:"transmissions"`
	JFrames         int64   `json:"jframes"`
	Exchanges       int64   `json:"exchanges"`
	Flows           int64   `json:"flows"`
	CompleteFlows   int64   `json:"complete_flows"`
	DispersionP90US int64   `json:"dispersion_p90_us"`
	DispersionP99US int64   `json:"dispersion_p99_us"`
	CoverageOverall float64 `json:"coverage_overall"`
	WirelessShare   float64 `json:"tcp_wireless_loss_share"`
	// PerCCGoodputBps is ground-truth goodput by congestion-control
	// algorithm; CCAccuracy/CCClassified score the transport
	// fingerprinter against that truth. None are omitempty: on a mixed-CC
	// row (CCMix != "fixed") zero/empty values mean "measured, nothing
	// there", which must stay distinguishable from a fixed row's
	// "not measured" (null map, absent accuracy semantics).
	PerCCGoodputBps map[string]float64 `json:"per_cc_goodput_bps"`
	CCAccuracy      float64            `json:"cc_fingerprint_accuracy"`
	CCClassified    int                `json:"cc_fingerprint_classified"`
	// CCAccuracyWired scores the same fingerprinter over the wired
	// distribution tap — the pre-MAC vantage where window dynamics
	// survive serialization (see analysis.WiredCCFingerprints).
	CCAccuracyWired   float64 `json:"cc_fingerprint_accuracy_wired"`
	CCClassifiedWired int     `json:"cc_fingerprint_classified_wired"`
	// Handoff metrics (mobility rows): ground-truth counts, the
	// air-reconstructed detector's counts and recall, and mean
	// decision-to-reassociation latency.
	HandoffsTruth        int     `json:"handoffs_truth"`
	HandoffsDetected     int     `json:"handoffs_detected"`
	HandoffRecall        float64 `json:"handoff_recall"`
	HandoffMeanLatencyMS float64 `json:"handoff_mean_latency_ms"`
	MergeMS              int64   `json:"merge_ms"`
	XRealtime            float64 `json:"x_realtime"`
	// HeapPeakBytes/BytesPerFrame profile the row's merge: sampled peak Go
	// heap, and that normalized by unified jframes. The sampler reads
	// process-wide heap, so with a pool (-workers > 1) concurrent scenarios
	// inflate each other's peaks — treat the values as upper bounds there.
	HeapPeakBytes uint64  `json:"heap_peak_bytes"`
	BytesPerFrame float64 `json:"bytes_per_frame"`
	Err           string  `json:"err,omitempty"`
}

// runSweep fans the config grid across scenario.RunBatch and prints one
// JSON row per scenario, in grid order, to stdout.
func runSweep(a sweepArgs) {
	// The deployment axis: either pod counts or named scale presets.
	type deployment struct {
		scale                  string
		cfg                    scenario.Config
		pods, apCount, clients int
	}
	var deployments []deployment
	if strings.TrimSpace(a.scales) != "" {
		for _, name := range strings.Split(a.scales, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			cfg, err := scenario.Preset(name)
			if err != nil {
				log.Fatalf("sweep: %v", err)
			}
			deployments = append(deployments, deployment{
				scale: name, cfg: cfg,
				pods: cfg.Pods, apCount: cfg.APs, clients: cfg.Clients,
			})
		}
		if len(deployments) == 0 {
			log.Fatal("sweep: empty -sweep-scale")
		}
	} else {
		pods := parseInts(a.pods)
		if len(pods) == 0 {
			log.Fatal("sweep: empty -sweep-pods")
		}
		aps := parseIntsDefault(a.aps, pods, func(p int) int { return p })
		clients := parseIntsDefault(a.clients, pods, func(p int) int { return 2 * p })
		for i, p := range pods {
			deployments = append(deployments, deployment{
				cfg: scenario.Default(), pods: p, apCount: aps[i], clients: clients[i],
			})
		}
	}
	bfracs := parseFloats(a.bfrac)
	seeds := parseInts64(a.seeds)
	if len(bfracs) == 0 || len(seeds) == 0 {
		log.Fatal("sweep: empty -sweep-bfrac or -sweep-seeds")
	}
	mixes := parseMixes(a.ccMixes)
	mobiles := parseInts(a.mobility)
	if len(mobiles) == 0 {
		mobiles = []int{0}
	}
	if a.spillRoot != "" {
		if err := os.MkdirAll(a.spillRoot, 0o755); err != nil {
			log.Fatalf("sweep: %v", err)
		}
	}

	var cfgs []scenario.Config
	var scales []string
	for _, d := range deployments {
		for _, bf := range bfracs {
			for _, sd := range seeds {
				for _, mix := range mixes {
					for _, mob := range mobiles {
						cfg := d.cfg
						cfg.Pods, cfg.APs, cfg.Clients = d.pods, d.apCount, d.clients
						cfg.BFraction = bf
						cfg.Seed = sd
						cfg.Day = sim.Time(a.day.Nanoseconds())
						// The CC axis overrides a preset's mix only when it
						// asks for a real mix; "fixed" keeps the preset's.
						if len(mix) > 0 {
							cfg.CCMix = mix
							cfg.WiredQueuePkts = a.queuePkts
							cfg.WiredBottleneckMbps = a.btlMbps
						} else if d.scale == "" {
							cfg.CCMix = nil
						}
						cfg.MobileClients = mob
						cfg.RoamHysteresisDB = a.roamHystDB
						if a.spillRoot != "" {
							cfg.SpillDir = filepath.Join(a.spillRoot, fmt.Sprintf("s%04d", len(cfgs)))
						}
						cfgs = append(cfgs, cfg)
						scales = append(scales, d.scale)
					}
				}
			}
		}
	}
	log.Printf("sweep: %d scenarios (%d deployments x %d b-fractions x %d seeds x %d cc-mixes x %d mobility), pool=%d",
		len(cfgs), len(deployments), len(bfracs), len(seeds), len(mixes), len(mobiles), a.poolWorkers)

	rows := make([]sweepRow, len(cfgs))
	t0 := time.Now()
	results := scenario.RunBatch(cfgs, a.poolWorkers, func(idx int, out *scenario.Output) error {
		rows[idx] = measureScenario(out, a.mergeWorkers)
		if out.TraceDir != "" {
			// Spilled sweep traces are scratch space; reclaim as we go.
			return os.RemoveAll(out.TraceDir)
		}
		return nil
	})
	for i, r := range results {
		rows[i].Pods = cfgs[i].Pods
		rows[i].APs = cfgs[i].APs
		rows[i].Clients = cfgs[i].Clients
		rows[i].BFraction = cfgs[i].BFraction
		rows[i].Seed = cfgs[i].Seed
		rows[i].DaySec = cfgs[i].Day.SecondsF()
		rows[i].CCMix = cc.FormatMix(cfgs[i].CCMix)
		rows[i].MobileClients = cfgs[i].MobileClients
		rows[i].Scale = scales[i]
		if r.Err != nil {
			rows[i].Err = r.Err.Error()
		}
	}

	enc := json.NewEncoder(os.Stdout)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("sweep: done in %v", time.Since(t0).Round(time.Millisecond))
}

// measureScenario runs the pipeline over one scenario's traces and distills
// the row metrics. Runs inside the batch pool. Traces are consumed through
// the scenario's TraceSet, so spilled (out-of-core) scenarios stream from
// disk and in-memory ones from their buffers, identically; the coverage
// and handoff analyses run as inline streaming passes, so nothing retains
// the exchange stream.
func measureScenario(out *scenario.Output, mergeWorkers int) sweepRow {
	var row sweepRow
	row.Radios = len(out.Indexes) // the true monitor count (0 on scenario error)
	row.MonitorRecords = out.MonitorRecords
	row.Transmissions = len(out.Truth)

	ccfg := core.DefaultConfig()
	ccfg.Workers = mergeWorkers
	covPass := analysis.NewCoveragePass(out)
	ccfg.Passes = []core.Pass{covPass}
	var roamPass *analysis.RoamingPass
	if out.Cfg.MobileClients > 0 {
		apSet := scenario.APSet(out.APs)
		roamPass = analysis.NewRoamingPass(func(m dot80211.MAC) bool { return apSet[m] })
		ccfg.Passes = append(ccfg.Passes, roamPass)
	}
	h := startHeapSampler()
	t1 := time.Now()
	res, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil)
	mergeDur := time.Since(t1)
	row.HeapPeakBytes = h.Stop()
	if err != nil {
		row.Err = err.Error()
		return row
	}

	row.JFrames = res.UnifyStats.JFrames
	row.Exchanges = res.LLCStats.Exchanges
	row.Flows = res.Transport.Stats.Flows
	row.CompleteFlows = res.Transport.Stats.CompleteFlows
	row.DispersionP90US = res.Dispersion.Percentile(0.90)
	row.DispersionP99US = res.Dispersion.Percentile(0.99)
	row.CoverageOverall = covPass.Finalize().(*analysis.CoverageReport).Overall
	rep := analysis.TCPLoss(analysis.TransportFlowLosses(res.Transport, 5))
	row.WirelessShare = rep.WirelessShare
	if len(out.Cfg.CCMix) > 0 {
		row.PerCCGoodputBps = make(map[string]float64)
		for _, r := range analysis.CCFairness(out.FlowCCs, out.Cfg.Day.SecondsF()) {
			row.PerCCGoodputBps[r.Algo] = r.GoodputBps
		}
		conf := analysis.CCConfusionReport(out.FlowCCs, res.Transport.FingerprintCC())
		row.CCAccuracy = conf.Accuracy
		row.CCClassified = conf.Classified
		wired := analysis.CCConfusionReport(out.FlowCCs, analysis.WiredCCFingerprints(out))
		row.CCAccuracyWired = wired.Accuracy
		row.CCClassifiedWired = wired.Classified
	}
	if roamPass != nil {
		rep := roamPass.Finalize().(*analysis.RoamingReport)
		sc := analysis.ScoreHandoffs(out.Handoffs, rep)
		row.HandoffsTruth = sc.Truth
		row.HandoffsDetected = sc.Events
		row.HandoffRecall = sc.Recall
		row.HandoffMeanLatencyMS = rep.MeanLatencyUS / 1e3
	}
	row.MergeMS = mergeDur.Milliseconds()
	row.XRealtime = out.Cfg.Day.SecondsF() / mergeDur.Seconds()
	if row.JFrames > 0 {
		row.BytesPerFrame = float64(row.HeapPeakBytes) / float64(row.JFrames)
	}
	return row
}

// parseMixes splits the pipe-separated -sweep-cc grid axis. An empty entry
// or a pure-fixed spec ("fixed", "fixed=1") denotes the compatibility mode
// (nil mix: no per-flow rng draw, no bottleneck queue) — the same
// semantics cmd/jigsim gives -cc.
func parseMixes(s string) []map[string]float64 {
	var out []map[string]float64
	for _, part := range strings.Split(s, "|") {
		mix, err := cc.ParseMixSpec(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("sweep: %v", err)
		}
		m, err := cc.NewMix(mix)
		if err != nil {
			log.Fatalf("sweep: %v", err)
		}
		if m == nil {
			mix = nil // effectively pure-fixed: the compatibility baseline
		}
		out = append(out, mix)
	}
	if len(out) == 0 {
		out = append(out, nil)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			log.Fatalf("sweep: bad int %q", p)
		}
		out = append(out, v)
	}
	return out
}

// parseIntsDefault parses a list parallel to base, deriving missing entries
// with fn.
func parseIntsDefault(s string, base []int, fn func(int) int) []int {
	if strings.TrimSpace(s) == "" {
		out := make([]int, len(base))
		for i, b := range base {
			out[i] = fn(b)
		}
		return out
	}
	out := parseInts(s)
	if len(out) != len(base) {
		log.Fatalf("sweep: list %q must parallel -sweep-pods (%d entries)", s, len(base))
	}
	return out
}

func parseInts64(s string) []int64 {
	var out []int64
	for _, v := range parseInts(s) {
		out = append(out, int64(v))
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			log.Fatalf("sweep: bad float %q", p)
		}
		out = append(out, v)
	}
	return out
}

// runFigures is the original paper-vs-measured mode.
func runFigures(paperscale bool, fig string, seed int64, workers int) {
	cfg := scenario.Default()
	cfg.Seed = seed
	cfg.BFraction = 0.3
	if paperscale {
		cfg = scenario.PaperScale()
		cfg.Seed = seed
	} else {
		cfg.Pods, cfg.APs, cfg.Clients = 12, 12, 24
		cfg.Day = 120 * sim.Second
	}

	fmt.Printf("scenario: %d pods (%d radios), %d APs, %d clients, day=%v\n",
		cfg.Pods, cfg.Pods*4, cfg.APs, cfg.Clients, time.Duration(cfg.Day))
	t0 := time.Now()
	out, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated in %v: %d monitor records, %d transmissions\n",
		time.Since(t0).Round(time.Millisecond), out.MonitorRecords, len(out.Truth))

	want := func(f string) bool { return fig == "all" || fig == f }
	line := func(id, what, paper, measured string) {
		fmt.Printf("%-8s %-42s paper: %-22s measured: %s\n", id, what, paper, measured)
	}

	// Every analysis runs as a streaming pass fed inline by the merge —
	// nothing retains the jframe or exchange streams, even at -paperscale.
	apSet := scenario.APSet(out.APs)
	isAP := func(m dot80211.MAC) bool { return apSet[m] }
	hourUS := out.Cfg.HourDur().US64()
	ccfg := core.DefaultConfig()
	ccfg.Workers = workers
	var (
		sum  *analysis.SummaryPass
		cov  *analysis.CoveragePass
		ts   *analysis.TimeSeriesPass
		intf *analysis.InterferencePass
		prot *analysis.ProtectionPass
		loss *analysis.TCPLossPass
		viz  *analysis.VizPass
	)
	add := func(p core.Pass) { ccfg.Passes = append(ccfg.Passes, p) }
	if want("table1") {
		sum = analysis.NewSummaryPass()
		add(sum)
	}
	if want("6") {
		cov = analysis.NewCoveragePass(out)
		add(cov)
	}
	if want("8") {
		ts = analysis.NewTimeSeriesPass(hourUS)
		add(ts)
	}
	if want("9") {
		intf = analysis.NewInterferencePass(100, isAP)
		add(intf)
	}
	if want("10") {
		prot = analysis.NewProtectionPass(hourUS, hourUS)
		add(prot)
	}
	if want("11") {
		loss = analysis.NewTCPLossPass(5)
		add(loss)
	}
	if want("2") {
		// A 4 ms window in the middle of the compressed day (the slice era
		// centered on the median retained jframe; without retention, the
		// day's midpoint is the streaming equivalent).
		viz = analysis.NewVizPassRelative(int64(out.Cfg.Day.SecondsF()*5e5), 4000, 96)
		add(viz)
	}
	var firstUS, lastUS, nJF int64
	sink := &core.Sink{OnJFrame: func(j *unify.JFrame) {
		if nJF == 0 {
			firstUS = j.UnivUS
		}
		lastUS = j.UnivUS
		nJF++
	}}
	t1 := time.Now()
	res, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, sink)
	if err != nil {
		log.Fatal(err)
	}
	mergeTime := time.Since(t1)

	fmt.Println()
	if want("table1") {
		s := sum.Finalize().(*analysis.TraceSummary)
		line("Table 1", "error events share", "47%", fmt.Sprintf("%.0f%%", s.ErrorEventPct))
		line("Table 1", "observations per transmission", "2.97", fmt.Sprintf("%.2f", s.AvgInstances))
		line("Table 1", "clients / APs seen", "1026 / 39 (full bldg)",
			fmt.Sprintf("%d / %d (scaled)", s.UniqueClients, s.UniqueAPs))
	}
	if want("4") {
		line("Fig 4", "dispersion p90", "<10 us",
			fmt.Sprintf("%d us", res.Dispersion.Percentile(0.90)))
		line("Fig 4", "dispersion p99", "<20 us",
			fmt.Sprintf("%d us", res.Dispersion.Percentile(0.99)))
	}
	if want("6") {
		covRep := cov.Finalize().(*analysis.CoverageReport)
		oracle, _ := analysis.OracleCoverage(out)
		line("Fig 6", "wired packets seen wirelessly", "97%", fmt.Sprintf("%.0f%%", 100*covRep.Overall))
		line("Fig 6", "AP stations at >=95% coverage", "94%", fmt.Sprintf("%.0f%%", 100*covRep.APsOver95))
		line("Fig 6", "client stations at >=95%", "78%", fmt.Sprintf("%.0f%%", 100*covRep.ClientsOver95))
		line("§6", "oracle link-event coverage", "95%", fmt.Sprintf("%.0f%%", 100*oracle))
	}
	if want("7") {
		full := cfg.Pods
		counts := []int{full, full * 3 / 4, full / 2}
		rows, err := analysis.PodSweep(out, counts)
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range rows {
			paper := []string{"92% cli / 94% AP", "71% cli / ~94% AP", "68% cli / ~94% AP"}[min(i, 2)]
			line("Fig 7", fmt.Sprintf("coverage with %d pods", r.Pods), paper,
				fmt.Sprintf("%.0f%% cli / %.0f%% AP (synced=%v)",
					100*r.ClientCoverage, 100*r.APCoverage, r.Synced))
		}
	}
	if want("8") {
		slots := ts.Finalize().([]analysis.ActivitySlot)
		peak, night := 0, 0
		for i, s := range slots {
			if i >= 10 && i <= 16 && s.ActiveClients > peak {
				peak = s.ActiveClients
			}
			if i >= 1 && i <= 5 && s.ActiveClients > night {
				night = s.ActiveClients
			}
		}
		line("Fig 8", "diurnal activity (peak vs night clients)", "strong diurnal",
			fmt.Sprintf("%d vs %d", peak, night))
		line("Fig 8", "broadcast airtime share", "~10%",
			fmt.Sprintf("%.0f%%", 100*analysis.BroadcastAirtimeShare(slots)))
	}
	if want("9") {
		rep := intf.Finalize().(*analysis.InterferenceReport)
		line("Fig 9", "pairs with interference", "88%",
			fmt.Sprintf("%.0f%% (%d pairs)", 100*rep.FractionWithInterference, len(rep.Pairs)))
		line("Fig 9", "median interference loss X", "0.025",
			fmt.Sprintf("%.4f", rep.XPercentile(0.5)))
		line("Fig 9", "p90 interference loss X", ">=0.1 for 10%",
			fmt.Sprintf("%.4f", rep.XPercentile(0.9)))
		line("Fig 9", "avg background loss", "0.12",
			fmt.Sprintf("%.3f", rep.AvgBackgroundLoss))
		line("Fig 9", "AP share of interfered senders", "56%",
			fmt.Sprintf("%.0f%%", 100*rep.SenderSplitAP))
	}
	if want("10") {
		rep := prot.Finalize().(*analysis.ProtectionReport)
		over, protected := 0, 0
		for _, s := range rep.Slots {
			over += s.Overprotective
			protected += s.ProtectedAPs
		}
		line("Fig 10", "overprotective AP slot-share", "common with 1h timeout",
			fmt.Sprintf("%d of %d protected slots", over, protected))
		line("Fig 10", "peak affected g clients", "25-50%",
			fmt.Sprintf("%.0f%%", 100*rep.PeakAffectedShare))
		line("fn 7", "protection overhead factor", "1.98",
			fmt.Sprintf("%.2f", rep.PotentialSpeedup))
	}
	if want("11") {
		rep := loss.Finalize().(*analysis.TCPLossReport)
		line("Fig 11", "wireless share of TCP loss", "dominant",
			fmt.Sprintf("%.0f%% (%d losses over %d flows)", 100*rep.WirelessShare, rep.TotalLosses, rep.Flows))
	}
	if want("2") && nJF > 1000 {
		fmt.Println("\nFig 2: synchronized trace visualization")
		fmt.Print(viz.Finalize().(string))
	}
	if want("§4") || fig == "all" {
		span := lastUS - firstUS
		line("§4", "merge faster than real time", "required",
			fmt.Sprintf("%.1fx (%v for %s of trace)", float64(span)/float64(mergeTime.Microseconds()),
				mergeTime.Round(time.Millisecond), time.Duration(span*1000).Round(time.Second)))
	}
	inf := analysis.Inference(res.LLCStats)
	line("§5", "attempts needing inference", "0.58%", fmt.Sprintf("%.2f%%", 100*inf.AttemptRate()))
	line("§5", "exchanges needing inference", "0.14%", fmt.Sprintf("%.2f%%", 100*inf.ExchangeRate()))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
