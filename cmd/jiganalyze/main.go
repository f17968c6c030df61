// Command jiganalyze prints the paper's §6/§7 analyses: trace summary
// (Table 1), coverage (Fig. 6), activity time series (Fig. 8), interference
// (Fig. 9), protection mode (Fig. 10), per-station diagnosis (§8), TCP loss
// (Fig. 11) and air-reconstructed roaming handoffs.
//
// Three modes:
//
//	jiganalyze [-pods 8 -aps 9 -clients 16 -day 120s]   # simulate + analyze
//	jiganalyze traces/                                  # analyze a trace directory
//	jiganalyze campus/                                  # hierarchical: building-NN subdirectories
//
// A directory containing building-NN subdirectories (the layout
// jigsim -campus writes) is analyzed hierarchically: each building is
// unified into a sorted intermediate jframe stream by a per-building worker
// pool (level 1), then the global k-way merge drives the same passes over
// the combined stream (level 2, core.RunHierarchical). Reports are
// unchanged; memory stays bounded by the per-building unifier windows plus
// the merge frontier.
//
// Every analysis runs as a streaming pass (internal/analysis) fed inline
// by the pipeline, so nothing retains the jframe or exchange streams:
// directory mode analyzes trace sets far larger than RAM at streaming
// heap, emitting the full report set. Deployment metadata (clock groups,
// AP roster, day duration, seed) comes from the meta.json sidecar there;
// the only reports skipped are those that genuinely need the simulator's
// wired tap / ground truth, each announced with an explicit line. In
// simulate mode, -spill-dir streams generated traces through a directory
// instead of holding them in memory — required for building-scale runs.
//
// -passes selects which reports to run: "all", or a comma-separated list of
// the analysis registry's pass names (summary, coverage, timeseries, …, the
// names -json prints and jigd serves) and fig4, the one report that is not
// a pass — the pipeline accumulates the dispersion histogram itself.
//
// -json replaces the text report with a JSON array of sections — the
// analysis.Section encoding, one element per selected report, byte-wise
// the same rows jigd serves at /reports/<pass>. Sections that need
// simulator ground truth are skipped (announced on stderr) in directory
// mode, exactly as in text mode.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/hmerge"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// selectReports resolves the -passes value: which reports were asked for
// (want, by report name) and the analysis selector that builds the passes
// behind them. A truth-needing report asked for without ground truth stays
// in want but out of the selector, so it is announced as skipped instead of
// refused. Unknown names are left for analysis.Select to reject.
func selectReports(sel string, haveTruth bool) (want map[string]bool, passes string) {
	specs := analysis.PassSpecs()
	var tokens []string
	if sel = strings.TrimSpace(sel); sel == "" || sel == "all" {
		tokens = []string{"fig4"}
		for _, spec := range specs {
			if !spec.Optional {
				tokens = append(tokens, spec.Name)
			}
		}
	} else {
		tokens = strings.Split(sel, ",")
	}
	needsTruth := map[string]bool{}
	for _, spec := range specs {
		needsTruth[spec.Name] = spec.NeedsTruth
	}
	want = map[string]bool{}
	var names []string
	for _, name := range tokens {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		want[name] = true
		if name != "fig4" && (haveTruth || !needsTruth[name]) {
			names = append(names, name)
		}
	}
	return want, strings.Join(names, ",")
}

// reportOrder is the print order: the registry's, with fig4 after the trace
// summary, where the paper has it.
func reportOrder() []analysis.PassSpec {
	var order []analysis.PassSpec
	for _, spec := range analysis.PassSpecs() {
		order = append(order, spec)
		if spec.Name == "summary" {
			order = append(order, analysis.PassSpec{Name: "fig4", Desc: "Fig. 4 group dispersion CDF"})
		}
	}
	return order
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("jiganalyze: ")
	var (
		pods     = flag.Int("pods", 8, "sensor pods (simulate mode)")
		aps      = flag.Int("aps", 9, "APs (simulate mode)")
		clients  = flag.Int("clients", 16, "clients (simulate mode)")
		day      = flag.Duration("day", 120*time.Second, "compressed day (simulate mode)")
		seed     = flag.Int64("seed", 1, "seed (simulate mode)")
		spillDir = flag.String("spill-dir", "", "simulate mode: stream generated traces through this directory instead of memory")
		passesF  = flag.String("passes", "all", "which reports to run: comma-separated pass names (jiganalyze -json prints them) and fig4, or 'all'")
		workers  = flag.Int("workers", 0, "pipeline workers (1 = inline on one goroutine, otherwise the three-stage pipeline; 0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "emit reports as a JSON array of sections (jigd's /reports encoding) instead of text")

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
		// A GC first makes the live set exact (the heap profile is
		// otherwise up to one cycle stale).
		defer func() {
			f, err := os.Create(*memprofile)
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
		}()
	}
	var dir string
	if flag.NArg() == 1 {
		dir = flag.Arg(0)
	} else if flag.NArg() > 1 {
		log.Fatalf("expected at most one trace directory argument, got %q", flag.Args())
	}
	var (
		traces      *tracefile.TraceSet
		clockGroups [][]int32
		apInfos     []scenario.APInfo
		hourUS      int64
		out         *scenario.Output // nil in directory mode: no ground truth
	)
	var buildingDirs []string // non-nil: campus layout, hierarchical path
	if dir != "" {
		meta, err := scenario.ReadMeta(dir)
		if err != nil {
			log.Fatal(err)
		}
		if bds, berr := scenario.ListBuildings(dir); berr == nil {
			buildingDirs = bds
		} else {
			traces, err = tracefile.OpenDir(dir)
			if err != nil {
				log.Fatal(err)
			}
		}
		clockGroups = meta.ClockGroups
		apInfos = meta.APs
		daySec := meta.DaySec
		if daySec == 0 {
			daySec = day.Seconds()
			log.Printf("warning: %s has no DaySec; slicing time by -day %v", scenario.MetaFileName, *day)
		}
		if buildingDirs != nil {
			log.Printf("campus directory %s: %d buildings, %d APs, day %.0fs, seed %d",
				dir, len(buildingDirs), len(apInfos), daySec, meta.Seed)
		} else {
			log.Printf("trace directory %s: %d radios, %d APs, day %.0fs, seed %d",
				dir, traces.Len(), len(apInfos), daySec, meta.Seed)
		}
		hourUS = int64(daySec * 1e6 / 24)
	} else {
		if *pods <= 0 || *aps <= 0 || *clients < 0 {
			log.Fatalf("invalid deployment (pods=%d aps=%d clients=%d)", *pods, *aps, *clients)
		}
		if *day <= 0 {
			log.Fatalf("invalid -day %v", *day)
		}
		cfg := scenario.Default()
		cfg.Pods, cfg.APs, cfg.Clients = *pods, *aps, *clients
		cfg.Day = sim.Time(day.Nanoseconds())
		cfg.Seed = *seed
		cfg.SpillDir = *spillDir

		var err error
		out, err = scenario.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		traces = out.TraceSet()
		clockGroups = out.ClockGroups
		apInfos = out.APs
		hourUS = out.Cfg.HourDur().US64()
	}

	apSet := scenario.APSet(apInfos)
	params := analysis.PassParams{
		SlotUS:     hourUS,
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
		Out:        out,
		// A viz report, when named, shows the trace's first 5 ms.
		VizDurUS: 5_000,
		VizWidth: 100,
	}
	want, names := selectReports(*passesF, out != nil)
	var passes []analysis.Pass
	if names != "" { // an empty selector must not expand to "all"
		var err error
		passes, err = analysis.NewPasses(names, params)
		if err != nil {
			log.Fatalf("%v; jiganalyze also takes fig4", err)
		}
	}

	ccfg := core.DefaultConfig()
	ccfg.Workers = *workers
	ccfg.Passes = analysis.CorePasses(passes)
	var (
		res *core.Result
		err error
	)
	if buildingDirs != nil {
		res, err = runCampus(buildingDirs, ccfg, *workers)
	} else {
		res, err = core.RunFrom(traces, clockGroups, ccfg, nil)
	}
	if err != nil {
		log.Fatal(err)
	}

	if u := res.Bootstrap.Unsynced; len(u) > 0 {
		log.Printf("warning: radios %v could not be synchronized; their records are in no report", u)
	}
	reports := make(map[string]analysis.Report, len(passes))
	for _, p := range passes {
		reports[p.Name()] = p.Finalize()
	}

	var secs []analysis.Section // -json: the reports in print order
	for _, spec := range reportOrder() {
		if !want[spec.Name] {
			continue
		}
		rep, ran := reports[spec.Name]
		switch {
		case spec.Name == "fig4":
			if *jsonOut {
				secs = append(secs, fig4Section(res))
				continue
			}
			fmt.Println("== Fig. 4: group dispersion CDF ==")
			for _, p := range fig4Percentiles {
				fmt.Printf("p%-3.0f %4d us\n", p*100, res.Dispersion.Percentile(p))
			}
			fmt.Println()
		case !ran && *jsonOut:
			log.Printf("%s: skipped — needs simulator ground truth", spec.Name)
		case !ran:
			fmt.Printf("== %s: skipped — needs the wired distribution tap and simulator ground truth (a trace directory carries neither) ==\n\n", spec.Desc)
		case *jsonOut:
			sec, err := analysis.SectionJSON(spec.Name, rep)
			if err != nil {
				log.Fatal(err)
			}
			secs = append(secs, sec)
		default:
			printReport(spec.Name, rep, res, out)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(secs); err != nil {
			log.Fatal(err)
		}
	}
}

var fig4Percentiles = []float64{0.5, 0.75, 0.9, 0.95, 0.99}

// fig4Section is the -json form of the dispersion CDF, which is derived
// from the pipeline result rather than a pass: a section of percentile rows.
func fig4Section(res *core.Result) analysis.Section {
	type prow struct {
		P  float64 `json:"p"`
		US int64   `json:"dispersion_us"`
	}
	rows := make([]prow, 0, len(fig4Percentiles))
	for _, p := range fig4Percentiles {
		rows = append(rows, prow{P: p, US: res.Dispersion.Percentile(p)})
	}
	return analysis.Section{Pass: "fig4", Rows: rows}
}

// printReport renders one pass's report as its text section. out is nil
// without simulator ground truth.
func printReport(name string, rep analysis.Report, res *core.Result, out *scenario.Output) {
	switch name {
	case "summary":
		fmt.Println("== Table 1: trace summary ==")
		fmt.Print(rep.(*analysis.TraceSummary).String())
		inf := analysis.Inference(res.LLCStats)
		fmt.Printf("%-28s %.3f%% attempts, %.3f%% exchanges\n\n",
			"inference required", 100*inf.AttemptRate(), 100*inf.ExchangeRate())
	case "coverage":
		fmt.Println("== Fig. 6 / §6: wired-trace coverage ==")
		cov := rep.(*analysis.CoverageReport)
		fmt.Printf("overall %.1f%% of %d wired packets seen wirelessly\n", 100*cov.Overall, cov.TotalWired)
		fmt.Printf("clients: %.1f%% aggregate, %.0f%% of stations at 100%%, %.0f%% at >=95%%\n",
			100*cov.ClientCoverage, 100*cov.ClientsAt100, 100*cov.ClientsOver95)
		fmt.Printf("APs:     %.1f%% aggregate, %.0f%% of stations at 100%%, %.0f%% at >=95%%\n",
			100*cov.APCoverage, 100*cov.APsAt100, 100*cov.APsOver95)
		oracle, _ := analysis.OracleCoverage(out)
		fmt.Printf("oracle (ground truth) coverage of client events: %.1f%%\n\n", 100*oracle)
	case "timeseries":
		fmt.Println("== Fig. 8: activity time series (per compressed hour) ==")
		slots := rep.([]analysis.ActivitySlot)
		fmt.Printf("%4s %7s %5s %10s %10s %9s %9s\n", "hr", "clients", "APs", "data B", "mgmt B", "beacon B", "ARP B")
		for i, s := range slots {
			fmt.Printf("%4d %7d %5d %10d %10d %9d %9d\n",
				i, s.ActiveClients, s.ActiveAPs, s.DataBytes, s.MgmtBytes, s.BeaconBytes, s.ARPBytes)
		}
		fmt.Printf("broadcast airtime share: %.1f%%\n\n", 100*analysis.BroadcastAirtimeShare(slots))
	case "interference":
		fmt.Println("== Fig. 9: interference loss rate ==")
		rep := rep.(*analysis.InterferenceReport)
		fmt.Printf("(s,r) pairs with >=50 packets: %d of %d\n", len(rep.Pairs), rep.PairsConsidered)
		fmt.Printf("pairs with interference: %.0f%% (paper 88%%); negative Pi truncated: %.0f%% (paper 11%%)\n",
			100*rep.FractionWithInterference, 100*rep.NegativePiFraction)
		fmt.Printf("avg background loss rate: %.3f (paper 0.12)\n", rep.AvgBackgroundLoss)
		fmt.Printf("AP share among interfered senders: %.0f%% (paper 56%%)\n", 100*rep.SenderSplitAP)
		for _, p := range []float64{0.5, 0.9, 0.95} {
			fmt.Printf("X p%-3.0f = %.4f\n", p*100, rep.XPercentile(p))
		}
		fmt.Println()
	case "protection":
		fmt.Println("== Fig. 10: overprotective APs ==")
		rep := rep.(*analysis.ProtectionReport)
		fmt.Printf("%4s %10s %15s %10s %12s\n", "hr", "protected", "overprotective", "g active", "g affected")
		for i, s := range rep.Slots {
			if s.ProtectedAPs == 0 && s.ActiveGClients == 0 {
				continue
			}
			fmt.Printf("%4d %10d %15d %10d %12d\n",
				i, s.ProtectedAPs, s.Overprotective, s.ActiveGClients, s.GOnOverprotected)
		}
		fmt.Printf("peak affected g-client share: %.0f%% (paper 25-50%%)\n", 100*rep.PeakAffectedShare)
		fmt.Printf("potential throughput factor without protection: %.2f (paper 1.98)\n\n", rep.PotentialSpeedup)
	case "diagnose":
		fmt.Println("== §8: per-station diagnosis (top airtime consumers) ==")
		for n, d := range rep.([]analysis.StationDiagnosis) {
			if n >= 8 {
				break
			}
			fmt.Printf("%v  airtime %5.1f%%  rate %5.1f Mbps  retries/exch %.2f\n",
				d.MAC, 100*d.AirtimeShare, d.MeanRateMbps, d.RetryRate)
			for _, f := range d.Findings {
				fmt.Printf("    ! %s\n", f)
			}
		}
		fmt.Println()
	case "tcploss":
		fmt.Println("== Fig. 11: TCP loss ==")
		rep := rep.(*analysis.TCPLossReport)
		fmt.Printf("flows analyzed: %d, total losses: %d\n", rep.Flows, rep.TotalLosses)
		fmt.Printf("wireless share of classified losses: %.0f%% (paper: wireless dominant)\n\n",
			100*rep.WirelessShare)
	case "roam":
		fmt.Println("== Roaming: handoffs reconstructed from the air ==")
		rep := rep.(*analysis.RoamingReport)
		fmt.Print(analysis.RoamingTable(rep, nil))
		if out != nil {
			sc := analysis.ScoreHandoffs(out.Handoffs, rep)
			if sc.Truth > 0 {
				fmt.Printf("vs ground truth: %d/%d matched (recall %.0f%%), mean completion error %.1f ms\n",
					sc.Matched, sc.Truth, 100*sc.Recall, sc.MeanAbsEndErrUS/1e3)
			}
			if rows := analysis.RoamDisruptionByCC(out); len(rows) > 0 {
				fmt.Print(analysis.RoamingTable(nil, rows))
			}
		} else {
			fmt.Println("handoff scoring / per-CC disruption: skipped — needs simulator ground truth (not carried by a trace directory)")
		}
	case "viz":
		fmt.Println("== Fig. 2: synchronized trace, first 5 ms ==")
		fmt.Println(rep.(string))
	}
}

// runCampus executes the hierarchical pipeline over a campus layout:
// level 1 unifies each building directory into an intermediate stream
// (worker pool, one stream per building, written to a temporary directory),
// level 2 k-way-merges the streams and drives the configured passes.
func runCampus(buildingDirs []string, ccfg core.Config, workers int) (*core.Result, error) {
	streamDir, err := os.MkdirTemp("", "jiganalyze-hmerge-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(streamDir)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := workers
	if pool > len(buildingDirs) {
		pool = len(buildingDirs)
	}
	paths := make([]string, len(buildingDirs))
	errs := make([]error, len(buildingDirs))
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(buildingDirs) {
					return
				}
				bdir := buildingDirs[i]
				meta, err := scenario.ReadMeta(bdir)
				if err != nil {
					errs[i] = err
					continue
				}
				out := filepath.Join(streamDir, filepath.Base(bdir)+".jfs")
				if _, err := hmerge.UnifyDir(bdir, out, meta.ClockGroups, hmerge.UnifyConfig{Workers: 1}); err != nil {
					errs[i] = err
					continue
				}
				paths[i] = out
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("unify %s: %w", buildingDirs[i], err)
		}
	}
	return core.RunHierarchicalPaths(paths, ccfg, nil)
}
