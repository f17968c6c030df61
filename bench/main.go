// Command bench is the repo benchmark: it generates its inputs from a seed,
// computes reference outputs on the running machine, runs the five
// workloads named in BENCHMARK.json with tracing off, runs a separate traced
// suite for the per-layer numbers, checks every output, and prints every
// metric by name with its unit. See README.md for the metric glossary.
//
//	bash bench/run.sh                                   # every workload, then the traced suite
//	bash bench/run.sh --workload paper_flat --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --workload campus_global --seed 3 --seconds 10 --trace 1
//	bash bench/run.sh -selfcheck -seed 2
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is non-zero when a
// check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names (bench_test.go keeps the two in step).
type metricDef struct{ name, unit string }

// bound is how much worse any end-to-end metric may get before a change
// counts as a regression; -selfcheck compares two sets of runs against it.
const bound = 0.25

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"window_lag_ms_p50", "ms"},
	{"window_lag_ms_p80", "ms"},
}

// perLayer lists the traced suite's metrics, layer = package name.
func perLayer() []metricDef {
	defs := []metricDef{
		{"tracefile.read_ns_per_record", "ns"},
		{"tracefile.records", "count"},
		{"tracefile.comp_mb", "MB"},
		{"tracefile.share", "ratio"},
		{"dot80211.decode_ns_per_record", "ns"},
		{"clock.translate_ns_per_call", "ns"},
		{"timesync.bootstrap_ms", "ms"},
		{"timesync.unsynced_radios", "count"},
		{"unify.self_ns_per_record", "ns"},
		{"unify.jframes", "count"},
		{"unify.obs_per_jframe", "ratio"},
		{"unify.resyncs", "count"},
		{"unify.share", "ratio"},
		{"hmerge.write_ns_per_jframe", "ns"},
		{"hmerge.jfs_bytes_per_jframe", "B"},
		{"hmerge.read_ns_per_jframe", "ns"},
		{"hmerge.merge_ns_per_jframe", "ns"},
		{"llc.self_ns_per_jframe", "ns"},
		{"llc.exchanges", "count"},
		{"llc.inferred_exchange_ratio", "ratio"},
		{"transport.add_ns_per_exchange", "ns"},
		{"transport.flows", "count"},
	}
	for _, name := range passNames() {
		defs = append(defs, metricDef{"analysis." + name + "_ns_per_jframe", "ns"})
	}
	return append(defs,
		metricDef{"analysis.finalize_ms", "ms"},
		metricDef{"analysis.share", "ratio"},
		metricDef{"core.parallel_speedup", "ratio"},
		metricDef{"core.cpu_s_per_iter", "s"},
		metricDef{"core.allocs_per_record", "count"},
		metricDef{"core.alloc_bytes_per_record", "B"},
		metricDef{"core.residual_share", "ratio"},
		metricDef{"serve.frontier_lag_ms_p50", "ms"},
		metricDef{"serve.watermark_lag_ms_p50", "ms"},
		metricDef{"serve.first_report_s", "s"},
		metricDef{"serve.windows_closed", "count"},
		metricDef{"serve.cpu_s", "s"},
		metricDef{"gen.late_ms_max", "ms"},
		metricDef{"gen.offered_records_per_s", "1/s"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.reconcile_ratio", "ratio"},
	)
}

// passNames lists the registry passes a trace directory can run (what
// "all" selects without simulator ground truth), in registry order.
func passNames() []string {
	var names []string
	for _, spec := range analysis.PassSpecs() {
		if !spec.Optional && !spec.NeedsTruth {
			names = append(names, spec.Name)
		}
	}
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one run of one workload (tracing off) or of the traced suite.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks; empty means correct
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) result(defs []metricDef) result {
	r := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: o.values[d.name], Unit: d.unit}
	}
	return r
}

// printOutcome prints the metrics by name with unit, then the result line.
func printOutcome(title string, o *outcome, defs []metricDef) bool {
	fmt.Printf("== %s ==\n", title)
	for _, d := range defs {
		fmt.Printf("%-36s %16.6g %s\n", d.name, o.values[d.name], d.unit)
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	r := o.result(defs)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode result:", err)
		return false
	}
	fmt.Println(string(line))
	return r.Correct
}

// provenance says where and on what the numbers were measured.
type provenance struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Seed         int64   `json:"seed"`
	ScenarioSeed int64   `json:"scenario_seed"`
	CaptureLoss  float64 `json:"capture_loss"`
	Seconds      float64 `json:"seconds"`
	PaperDaySec  float64 `json:"paper_day_s"`
	CampusDaySec float64 `json:"campus_day_s"`
	Buildings    int     `json:"campus_buildings"`
	Setups       int     `json:"setups_per_run"`
	WarmUps      int     `json:"warm_up_iterations"`
	MinIters     int     `json:"min_timed_iterations"`
}

func (h *harness) provenance() provenance {
	p := provenance{
		Commit:       "unknown",
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     "unknown",
		Seed:         h.seed,
		ScenarioSeed: scenarioSeed,
		CaptureLoss:  captureLoss,
		Seconds:      h.seconds,
		PaperDaySec:  h.paperDaySec,
		CampusDaySec: h.campusDaySec,
		Buildings:    campusBuildings,
		Setups:       h.setups,
		WarmUps:      1,
		MinIters:     h.minIters,
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload in this process (default: every workload and then the traced suite, each in a child process)")
		seed      = flag.Int64("seed", 1, "which records the monitors captured; 2 is the held-out seed for later claims")
		seconds   = flag.Float64("seconds", 8, "how long each workload measures")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced suite and prints the per-layer metrics")
		traceOut  = flag.String("trace-out", filepath.Join(".bench_build", "spans.json"), "where the traced suite writes its spans")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and report whether the two sets agree within each metric's bound")
		work      = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs (a per-process subdirectory is created and removed)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	if *workload == "" {
		if !runAll(*selfcheck) {
			os.Exit(1)
		}
		return
	}
	if !slices.Contains(workloadNames(), *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have: %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	h, err := newHarness(*seed, *seconds, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ok := h.run(*workload, *trace == 1, *traceOut)
	if err := h.cleanup(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload, or runs the traced suite for it; it reports
// whether every check passed.
func (h *harness) run(workload string, traced bool, traceOut string) bool {
	prov, err := json.Marshal(h.provenance())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode provenance:", err)
		return false
	}
	fmt.Printf("provenance: %s\n", prov)
	if traced {
		return printOutcome("traced suite ("+workload+")", h.traceSuite(workload, traceOut), perLayer())
	}
	return printOutcome(workload, h.runWorkload(workload), endToEnd)
}

// runAll is the one command for everything: each workload with tracing
// off, then the traced suite, every run a child process given this
// process's flags, exactly as the driver starts them, so no run's memory or
// caches leak into the next. With selfcheck it makes two untraced sets and
// compares them, per workload and end-to-end metric, against the metric's
// bound; each value is already a median over a run's iterations or windows.
func runAll(selfcheck bool) bool {
	ok := true
	child := func(workload string, trace int) result {
		r, err := runChild(workload, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		}
		ok = ok && err == nil && r.Correct
		return r
	}
	if !selfcheck {
		for _, name := range workloadNames() {
			child(name, 0)
		}
		child("paper_serial", 1)
		return ok
	}
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, name := range workloadNames() {
			sets[i][name] = child(name, 0)
		}
	}
	fmt.Println("== selfcheck: second set against first ==")
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			a, b := sets[0][name].Metrics[d.name].Value, sets[1][name].Metrics[d.name].Value
			diff := math.Abs(b-a) / a
			verdict := "agree"
			if !(diff <= bound) {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g  differ by %5.1f%% (bound %2.0f%%)  %s\n",
				name, d.name, a, b, 100*diff, 100*bound, verdict)
		}
	}
	return ok
}

// runChild runs this program for one workload, passes its output through
// and returns its result line.
func runChild(workload string, trace int) (result, error) {
	var r result
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	args := []string{"-workload", workload, "-trace", fmt.Sprint(trace)}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "selfcheck" && f.Name != "trace" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	os.Stdout.Write(out)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return r, runErr
		}
		return r, fmt.Errorf("no result line: %w", err)
	}
	return r, nil
}
