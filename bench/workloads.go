package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// workloads names the five workloads and why each exists; BENCHMARK.json
// carries the same lines.
var workloads = []struct{ name, why string }{
	{"paper_flat", "closed loop, 1 client: jiganalyze -json over paper20 (156 radios) at Workers=GOMAXPROCS; every layer runs and tracefile+unify dominate, so front-half and dispatch work shows here"},
	{"paper_serial", "the same job at Workers=1: the single-threaded baseline and the only driver jigd can use; separates real work from sharding overhead"},
	{"campus_unify", "closed loop: level-1 hmerge.UnifyDir over campus2x5's two buildings; front half plus .jfs write only, so a back-half change must not move it"},
	{"campus_global", "closed loop: RunHierarchicalPaths over the level-1 streams; .jfs read, k-way merge, llc, transport, analysis only; tracefile, timesync and unify are bypassed"},
	{"live_paced", "open loop at a fixed rate: the paper deployment replayed at 4x real time into a capture directory the real jigd tails; waiting, not CPU, sets window lag, and tracefile writes/tailing and serve run"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runOutput is what an output check compares: a digest of the rendered
// report plus the pipeline's own counters.
type runOutput struct {
	digest   string
	unify    unify.Stats
	llc      llc.Stats
	unsynced []int32 // radios the bootstrap could not synchronize
}

// newPasses builds the registry's full pass set with the parameters
// jiganalyze's directory mode derives from meta.json.
func newPasses(meta scenario.Meta) ([]analysis.Pass, error) {
	apSet := scenario.APSet(meta.APs)
	return analysis.NewPasses("all", analysis.PassParams{
		SlotUS:     int64(meta.DaySec * 1e6 / 24),
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
	})
}

// render finalizes every pass, renders every section as jiganalyze -json
// does, and digests the sections in registry order with the run's
// unify/llc counters and the Fig. 4 dispersion percentiles.
func render(passes []analysis.Pass, res *core.Result) (runOutput, error) {
	sum := sha256.New()
	for _, p := range passes {
		sec, err := analysis.SectionJSON(p.Name(), p.Finalize())
		if err != nil {
			return runOutput{}, err
		}
		b, err := json.Marshal(sec)
		if err != nil {
			return runOutput{}, fmt.Errorf("render %s: %w", p.Name(), err)
		}
		sum.Write(b)
	}
	fmt.Fprintf(sum, "%+v %+v", res.UnifyStats, res.LLCStats)
	for _, p := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		fmt.Fprintf(sum, " %d", res.Dispersion.Percentile(p))
	}
	return runOutput{
		digest: hex.EncodeToString(sum.Sum(nil)),
		unify:  res.UnifyStats, llc: res.LLCStats, unsynced: res.Bootstrap.Unsynced,
	}, nil
}

// runFlat is the batch job over a flat trace directory: records in,
// rendered report out.
func runFlat(in *paperInput, workers int) (runOutput, error) {
	ts, err := tracefile.OpenDir(in.dir)
	if err != nil {
		return runOutput{}, err
	}
	passes, err := newPasses(in.meta)
	if err != nil {
		return runOutput{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Passes = analysis.CorePasses(passes)
	res, err := core.RunFrom(ts, in.meta.ClockGroups, cfg, nil)
	if err != nil {
		return runOutput{}, err
	}
	return render(passes, res)
}

// runHier is level 2 of the hierarchical job: level-1 streams in, rendered
// report out.
func runHier(in *campusInput, workers int) (runOutput, error) {
	passes, err := newPasses(in.meta)
	if err != nil {
		return runOutput{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	cfg.Passes = analysis.CorePasses(passes)
	res, err := core.RunHierarchicalPaths(in.streams, cfg, nil)
	if err != nil {
		return runOutput{}, err
	}
	return render(passes, res)
}

// loopStats is one closed-loop measurement.
type loopStats struct {
	wallMS     []float64 // per timed iteration
	heapMB     []float64 // per timed iteration: sampled peak live+garbage heap
	rssMB      float64   // sampled peak resident set over the warm-up and the timed iterations
	failed     int
	problems   []string
	cpuS       float64 // user+system over the timed iterations
	mallocs    uint64
	allocBytes uint64
}

// closedWork is a closed-loop workload over inputs already set up.
type closedWork struct {
	want    string                 // reference digest
	records int64                  // records one iteration represents
	iterate func() (string, error) // the job; returns its output's digest
	// check, when set, digests output the job left on disk; it runs after
	// the iteration's clock has stopped.
	check func() (string, error)
}

// closedLoop drives one client: one warm-up iteration, then timed
// iterations, each started when the previous one completed, until
// h.seconds have been measured (and at least h.minIters iterations). An
// iteration fails when it errors or its digest differs from w.want.
func (h *harness) closedLoop(w closedWork) loopStats {
	var st loopStats
	// once runs one iteration and returns its wall time and whether it passed.
	once := func(what string) (time.Duration, bool) {
		t0 := time.Now()
		got, err := w.iterate()
		wall := time.Since(t0)
		if err == nil && w.check != nil {
			got, err = w.check()
		}
		switch {
		case err != nil:
			st.problems = append(st.problems, fmt.Sprintf("%s: %v", what, err))
		case got != w.want:
			st.problems = append(st.problems, fmt.Sprintf("%s: digest %.12s differs from the reference %.12s", what, got, w.want))
		default:
			return wall, true
		}
		return wall, false
	}
	// Set-up's memory goes back to the OS first, so the resident set the
	// sampler sees is what the job itself needs.
	debug.FreeOSMemory()
	sampler := startMemSampler()
	_, ok := once("warm-up")
	st.rssMB = float64(sampler.stop().rssB) / (1 << 20)
	if !ok {
		return st
	}
	var measured time.Duration
	for n := 1; len(st.wallMS) < h.minIters || measured.Seconds() < h.seconds; n++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := selfCPU()
		sampler := startMemSampler()
		wall, ok := once(fmt.Sprintf("iteration %d", n))
		peaks := sampler.stop()
		st.cpuS += selfCPU() - cpu0
		runtime.ReadMemStats(&m1)
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		measured += wall
		st.wallMS = append(st.wallMS, float64(wall.Nanoseconds())/1e6)
		st.heapMB = append(st.heapMB, float64(peaks.heapB)/(1<<20))
		st.rssMB = max(st.rssMB, float64(peaks.rssB)/(1<<20))
		if !ok {
			st.failed++
		}
	}
	return st
}

// memPeaks is what a memSampler saw: the peaks of the heap's object bytes
// (MemStats' HeapAlloc) and of the process's resident set.
type memPeaks struct{ heapB, rssB uint64 }

// memSampler reads both every 5 ms without stopping the world.
type memSampler struct {
	quit chan struct{}
	done chan memPeaks
}

func startMemSampler() *memSampler {
	s := &memSampler{quit: make(chan struct{}), done: make(chan memPeaks)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peaks memPeaks
		for {
			metrics.Read(sample)
			peaks.heapB = max(peaks.heapB, sample[0].Value.Uint64())
			peaks.rssB = max(peaks.rssB, residentBytes())
			select {
			case <-s.quit:
				s.done <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *memSampler) stop() memPeaks {
	close(s.quit)
	return <-s.done
}

// residentBytes is the process's resident set now (the second field of
// /proc/self/statm, in pages), or 0 where there is no procfs.
func residentBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident uint64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * uint64(os.Getpagesize())
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func selfCPU() float64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return cpuSeconds(&ru)
}

// runWorkload sets one workload up, measures it with tracing off and
// returns its end-to-end metrics (and the core.* rows the traced suite
// reports for it).
func (h *harness) runWorkload(name string) *outcome {
	o := &outcome{values: map[string]float64{}}
	var (
		paper  *paperInput
		campus *campusInput
		secs   []float64
		err    error
	)
	switch name {
	case "live_paced":
		h.runLive(o)
		return o
	case "paper_flat", "paper_serial":
		paper, secs, err = repeatSetup(h, name, func(dir string) (*paperInput, error) { return h.setupPaper(h.paperDaySec, dir) })
	case "campus_unify", "campus_global":
		campus, secs, err = repeatSetup(h, name, func(dir string) (*campusInput, error) { return h.setupCampus(dir, name == "campus_global") })
	}
	if err != nil {
		o.attempted, o.failed = 1, 1
		o.problemf("%s: %v", name, err)
		return o
	}
	w := h.closedWorkload(name, paper, campus)
	closedLoopOutcome(o, h.closedLoop(w), w.records, secs)
	return o
}

// closedWorkload returns a closed-loop workload over inputs already set up.
func (h *harness) closedWorkload(name string, paper *paperInput, campus *campusInput) closedWork {
	switch name {
	case "paper_flat", "paper_serial":
		workers := 0
		if name == "paper_serial" {
			workers = 1
		}
		return closedWork{want: paper.ref.digest, records: paper.records, iterate: func() (string, error) {
			out, err := runFlat(paper, workers)
			return out.digest, err
		}}
	case "campus_unify":
		// One iteration unifies both buildings into fresh streams; hashing
		// the files is the harness's check, not the job.
		streamDir := filepath.Join(h.work, "iter-streams")
		paths := make([]string, len(campus.buildings))
		for i, b := range campus.buildings {
			paths[i] = streamPath(streamDir, b)
		}
		return closedWork{want: campus.unifyRef, records: campus.records,
			iterate: func() (string, error) { _, err := unifyBuildings(campus.buildings, streamDir); return "", err },
			check:   func() (string, error) { return hashStreams(paths) },
		}
	case "campus_global":
		return closedWork{want: campus.hierRef.digest, records: campus.records, iterate: func() (string, error) {
			out, err := runHier(campus, 0)
			return out.digest, err
		}}
	}
	panic("not a closed-loop workload: " + name)
}

// closedLoopOutcome turns a closed-loop measurement into metric values. A
// batch job's whole input is due when the call starts, so its report lag
// is the iteration's wall time.
func closedLoopOutcome(o *outcome, st loopStats, records int64, setupSecs []float64) {
	o.attempted, o.failed = max(1, len(st.wallMS)), st.failed
	o.problems = append(o.problems, st.problems...)
	if len(st.wallMS) == 0 {
		o.failed = o.attempted
		return
	}
	iters := float64(len(st.wallMS))
	o.values["setup_s"] = median(setupSecs)
	o.values["records_per_s"] = float64(records) / (median(st.wallMS) / 1e3)
	o.values["peak_heap_mb"] = median(st.heapMB)
	o.values["peak_rss_mb"] = st.rssMB
	o.values["window_lag_ms_p50"] = median(st.wallMS)
	o.values["window_lag_ms_p80"] = percentile(st.wallMS, 0.8)
	o.values["core.cpu_s_per_iter"] = st.cpuS / iters
	o.values["core.allocs_per_record"] = float64(st.mallocs) / iters / float64(records)
	o.values["core.alloc_bytes_per_record"] = float64(st.allocBytes) / iters / float64(records)
}
