// The -bench-json mode: the pipeline's memory/throughput trajectory.
//
// For each requested preset the harness generates one trace directory
// (spilled to disk as the radios produce it, like jigsim), then merges it
// twice — once streaming from the file-backed sources (the out-of-core
// path) and once from an in-memory buffer set (the compatibility path) —
// sampling the Go heap across each merge. The two JSON rows per preset
// make unbounded-buffering regressions visible: the streaming row's
// heap_peak_bytes must stay a small fraction of the in-memory row's, which
// -bench-assert-streaming enforces in CI under GOMEMLIMIT.
//
// Two more rows per preset profile the analysis layer the same way: the
// full truth-free report set run as inline streaming passes over the
// streaming merge ("analysis_inline") versus retained via
// KeepJFrames/KeepExchanges and analyzed post hoc from the slices
// ("analysis_posthoc"). -bench-assert-inline gates their heap ratio: the
// inline row must stay a small fraction of the slice-based row's, pinning
// the win that lets building-scale analysis run at streaming heap.
//
// A fifth row per preset ("jigd_windowed") profiles the daemon's read
// path: the trace directory replayed into a rotating capture, tailed
// through a TailSet, with the full pass set behind a serve.Monitor that
// finalizes and evicts per window on the serial pipeline — sustained
// frames/sec and peak heap for an always-on jigd over the same capture.
// -bench-assert-jigd gates that row's heap against the slice-based
// analysis run's, pinning the daemon's bounded-memory claim.
//
// The "campus" preset takes a different path entirely — the two-level
// scale harness in campus.go (rows replay/flat/hier_unify/hier_global,
// gated by -bench-assert-campus-*).
//
// Measuring wall time is this harness's purpose: the rows above are
// real-time throughput numbers, not simulation outputs.
//jiglint:allow wallclock

package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// benchRow is one merge measurement in BENCH_pipeline.json.
type benchRow struct {
	Preset  string  `json:"preset"`
	Mode    string  `json:"mode"` // streaming, inmemory, analysis_inline, analysis_posthoc, jigd_windowed; campus: replay, flat, hier_unify, hier_global
	Pods    int     `json:"pods"`
	Radios  int     `json:"radios"`
	APs     int     `json:"aps"`
	Clients int     `json:"clients"`
	DaySec  float64 `json:"day_sec"`

	// Workers marks a workers-sweep row (-bench-workers): the pipeline
	// worker count the row was measured at. Absent on the standard rows,
	// which run at the -workers flag's value.
	Workers int `json:"workers,omitempty"`

	MonitorRecords int64 `json:"monitor_records"`
	// JFrames (and the frames_per_sec/bytes_per_frame rates below) are
	// omitted on rows that move records rather than jframes — the campus
	// "replay" row reports records_per_sec instead, and the assert gates
	// skip absent fields.
	JFrames int64 `json:"jframes,omitempty"`
	Events  int64 `json:"events"`
	MergeMS int64 `json:"merge_ms"`
	// AnalysisMS is the time spent in analysis after the merge returns:
	// the whole slice-based report set on "analysis_posthoc" rows, only
	// the pass Finalize calls on "analysis_inline" rows (their analysis
	// work rides inside the merge). MergeMS never includes it.
	AnalysisMS   int64   `json:"analysis_ms,omitempty"`
	FramesPerSec float64 `json:"frames_per_sec,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
	// RecordsPerSec is the sustained monitor-record rate on rows whose unit
	// of work is the record (campus "replay").
	RecordsPerSec float64 `json:"records_per_sec,omitempty"`
	XRealtime     float64 `json:"x_realtime"`
	// HeapPeakBytes is the sampled peak Go heap during the merge;
	// BytesPerFrame normalizes it by unified jframes. An in-memory merge's
	// bytes-per-frame grows with trace length (the whole compressed set is
	// resident); a streaming merge's stays flat — the out-of-core
	// invariant this file's trajectory pins.
	HeapPeakBytes uint64  `json:"heap_peak_bytes"`
	BytesPerFrame float64 `json:"bytes_per_frame,omitempty"`
	// AllocsPerFrame is the merge's heap allocations (Mallocs delta across
	// the measured RunFrom, analysis excluded) per unified jframe — the
	// pooled frame lifecycle's regression metric, gated by
	// -bench-assert-allocs. Absent on campus rows.
	AllocsPerFrame float64 `json:"allocs_per_frame,omitempty"`
	// WindowsClosed counts the analysis windows the monitor finalized on a
	// "jigd_windowed" row (absent elsewhere).
	WindowsClosed int64 `json:"windows_closed,omitempty"`
}

// heapSampler polls runtime.ReadMemStats in the background recording peak
// HeapAlloc. ReadMemStats briefly stops the world, so the period is kept
// coarse relative to the merges it profiles.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := h.peak.Load()
			if ms.HeapAlloc <= old || h.peak.CompareAndSwap(old, ms.HeapAlloc) {
				return
			}
		}
	}
	sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap seen.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// benchArgs collects the -bench-json flag values.
type benchArgs struct {
	path, presets                             string
	day                                       time.Duration
	workers                                   int
	workDir                                   string
	workersSweep                              []int
	assertStreaming, assertInline, assertJigd float64
	assertFPS, assertAllocs                   float64
	campus                                    campusBenchArgs
}

// runBenchJSON measures every preset and writes the JSON rows to a.path.
func runBenchJSON(a benchArgs) {
	// Aggressive GC during profiling: with the default GOGC the heap
	// balloons to ~2x the live set before a collection, and that slack —
	// not the pipeline's working set — would dominate small runs' peaks.
	debug.SetGCPercent(10)
	workers := a.workers
	workDir := a.workDir
	keep := workDir != ""
	if workDir == "" {
		d, err := os.MkdirTemp("", "jigbench-")
		if err != nil {
			log.Fatal(err)
		}
		workDir = d
		defer os.RemoveAll(d)
	}

	var rows []benchRow
	failed := false
	for _, name := range strings.Split(a.presets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		dir := filepath.Join(workDir, name)
		if name == "campus" {
			// The campus scale harness (campus.go): its own generation,
			// row set and gates.
			crows, ok := benchCampus(dir, workers, a.campus)
			rows = append(rows, crows...)
			if !ok {
				failed = true
			}
			if !keep {
				if err := os.RemoveAll(dir); err != nil {
					log.Fatal(err)
				}
			}
			continue
		}
		cfg, err := benchPreset(name)
		if err != nil {
			log.Fatal(err)
		}
		if a.day > 0 {
			cfg.Day = sim.Time(a.day.Nanoseconds())
		}
		stream, inmem, inline, posthoc, jigd, sweep := benchOnePreset(name, cfg, dir, workers, a.workersSweep)
		rows = append(rows, stream, inmem, inline, posthoc, jigd)
		rows = append(rows, sweep...)
		if !keep {
			if err := os.RemoveAll(dir); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("%s: streaming heap %.1f MB vs in-memory %.1f MB (%.1f%%), %.0f frames/s, %.1f allocs/frame",
			name, float64(stream.HeapPeakBytes)/1e6, float64(inmem.HeapPeakBytes)/1e6,
			100*float64(stream.HeapPeakBytes)/float64(inmem.HeapPeakBytes), stream.FramesPerSec,
			stream.AllocsPerFrame)
		log.Printf("%s: inline-pass analysis heap %.1f MB vs slice-based %.1f MB (%.1f%%)",
			name, float64(inline.HeapPeakBytes)/1e6, float64(posthoc.HeapPeakBytes)/1e6,
			100*float64(inline.HeapPeakBytes)/float64(posthoc.HeapPeakBytes))
		log.Printf("%s: jigd windowed heap %.1f MB over %d windows (%.1f%% of slice-based), %.0f frames/s sustained",
			name, float64(jigd.HeapPeakBytes)/1e6, jigd.WindowsClosed,
			100*float64(jigd.HeapPeakBytes)/float64(posthoc.HeapPeakBytes), jigd.FramesPerSec)
		if a.assertStreaming > 0 && float64(stream.HeapPeakBytes) >= a.assertStreaming*float64(inmem.HeapPeakBytes) {
			log.Printf("FAIL %s: streaming peak heap %d >= %.0f%% of in-memory %d",
				name, stream.HeapPeakBytes, 100*a.assertStreaming, inmem.HeapPeakBytes)
			failed = true
		}
		if a.assertInline > 0 && float64(inline.HeapPeakBytes) >= a.assertInline*float64(posthoc.HeapPeakBytes) {
			log.Printf("FAIL %s: inline-pass analysis peak heap %d >= %.0f%% of slice-based %d",
				name, inline.HeapPeakBytes, 100*a.assertInline, posthoc.HeapPeakBytes)
			failed = true
		}
		if a.assertJigd > 0 && float64(jigd.HeapPeakBytes) >= a.assertJigd*float64(posthoc.HeapPeakBytes) {
			log.Printf("FAIL %s: jigd windowed peak heap %d >= %.0f%% of slice-based %d",
				name, jigd.HeapPeakBytes, 100*a.assertJigd, posthoc.HeapPeakBytes)
			failed = true
		}
		// Rate gates skip rows whose metric is absent (zero means the row
		// doesn't measure that unit of work, not a measured zero).
		if a.assertFPS > 0 && stream.FramesPerSec > 0 && stream.FramesPerSec < a.assertFPS {
			log.Printf("FAIL %s: streaming merge %.0f frames/s < required %.0f",
				name, stream.FramesPerSec, a.assertFPS)
			failed = true
		}
		if a.assertAllocs > 0 && stream.AllocsPerFrame > a.assertAllocs {
			log.Printf("FAIL %s: streaming merge %.2f allocs/frame > ceiling %.2f",
				name, stream.AllocsPerFrame, a.assertAllocs)
			failed = true
		}
	}

	f, err := os.Create(a.path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			_ = f.Close() // best-effort cleanup; the encode error is already fatal
			log.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d rows to %s", len(rows), a.path)
	if failed {
		os.Exit(1)
	}
}

// benchOnePreset generates one trace directory, merges it both ways,
// profiles the truth-free analysis report set both ways (inline passes vs
// retained slices), then profiles jigd's windowed read path over a
// replayed rotating capture of the same traces.
func benchOnePreset(name string, cfg scenario.Config, dir string, workers int, workersSweep []int) (stream, inmem, inline, posthoc, jigd benchRow, sweep []benchRow) {
	cfg.SpillDir = dir
	t0 := time.Now()
	out, err := scenario.Run(cfg)
	if err != nil {
		log.Fatalf("%s: simulate: %v", name, err)
	}
	log.Printf("%s: simulated %d radios, %d records in %v",
		name, len(out.Indexes), out.MonitorRecords, time.Since(t0).Round(time.Millisecond))
	// A kept work dir should be a complete trace directory (usable by
	// jigsaw/jiganalyze), so persist the sidecar too.
	if err := scenario.WriteMeta(dir, scenario.MetaFromOutput(out)); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	base := benchRow{
		Preset: name, Pods: cfg.Pods, Radios: len(out.Indexes),
		APs: cfg.APs, Clients: cfg.Clients, DaySec: cfg.Day.SecondsF(),
		MonitorRecords: out.MonitorRecords,
	}
	groups := out.ClockGroups
	// The analysis rows need only the AP roster and the slot width — keep
	// those, then drop the simulation output (ground truth, wired tap)
	// before profiling: the rows measure the pipeline, not the simulator.
	apSet := scenario.APSet(out.APs)
	isAP := func(m dot80211.MAC) bool { return apSet[m] }
	hourUS := cfg.HourDur().US64()
	out = nil

	ccfg := core.DefaultConfig()
	ccfg.Workers = workers

	measure := func(mode string, ts *tracefile.TraceSet, cfg core.Config, analyze func(*core.Result) time.Duration) benchRow {
		row := base
		row.Mode = mode
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		h := startHeapSampler()
		t1 := time.Now()
		res, err := core.RunFrom(ts, groups, cfg, nil)
		dur := time.Since(t1)
		if err != nil {
			log.Fatalf("%s/%s: merge: %v", name, mode, err)
		}
		// Mallocs delta before the analysis callback: the allocs-per-frame
		// metric charges the merge alone (plus the sampler's negligible own
		// allocation), not the finalized reports.
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		if res.UnifyStats.JFrames > 0 {
			row.AllocsPerFrame = float64(after.Mallocs-before.Mallocs) / float64(res.UnifyStats.JFrames)
		}
		if analyze != nil {
			row.AnalysisMS = analyze(res).Milliseconds()
		}
		row.HeapPeakBytes = h.Stop()
		row.JFrames = res.UnifyStats.JFrames
		row.Events = res.UnifyStats.Events
		row.MergeMS = dur.Milliseconds()
		row.FramesPerSec = float64(res.UnifyStats.JFrames) / dur.Seconds()
		row.EventsPerSec = float64(res.UnifyStats.Events) / dur.Seconds()
		row.XRealtime = row.DaySec / dur.Seconds()
		if res.UnifyStats.JFrames > 0 {
			row.BytesPerFrame = float64(row.HeapPeakBytes) / float64(res.UnifyStats.JFrames)
		}
		return row
	}

	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	stream = measure("streaming", ts, ccfg, nil)

	// The workers sweep axis (-bench-workers): the streaming merge at each
	// requested Workers value (1 = inline, anything else = the three-stage
	// pipeline, whose shape does not depend on the number).
	for _, w := range workersSweep {
		wcfg := ccfg
		wcfg.Workers = w
		row := measure("streaming", ts, wcfg, nil)
		row.Workers = w
		sweep = append(sweep, row)
		log.Printf("%s: workers=%d streaming %.0f frames/s", name, w, row.FramesPerSec)
	}

	// The in-memory path: the whole compressed trace set resident, as
	// core.Run's buffer map requires.
	bufs := make(map[int32][]byte, ts.Len())
	for _, r := range ts.Radios() {
		b, err := os.ReadFile(tracefile.TracePath(dir, r))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		bufs[r] = b
	}
	inmem = measure("inmemory", tracefile.NewBufferSet(bufs), ccfg, nil)
	bufs = nil

	// Analysis trajectory over the streaming sources: the truth-free
	// report set (what jiganalyze runs on a trace directory) as inline
	// passes, then the same reports from retained slices.
	params := analysis.PassParams{SlotUS: hourUS, MinPackets: 50, IsAP: isAP}
	inlineCfg := ccfg
	passes, err := analysis.NewPasses("all", params)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	inlineCfg.Passes = analysis.CorePasses(passes)
	inline = measure("analysis_inline", ts, inlineCfg, func(*core.Result) time.Duration {
		t := time.Now()
		for _, p := range passes {
			benchSink(p.Finalize())
		}
		return time.Since(t)
	})

	posthocCfg := ccfg
	posthocCfg.KeepJFrames = true
	posthocCfg.KeepExchanges = true
	posthoc = measure("analysis_posthoc", ts, posthocCfg, func(res *core.Result) time.Duration {
		t := time.Now()
		benchSink(analysis.Summarize(res, res.JFrames))
		benchSink(analysis.TimeSeries(res.JFrames, hourUS))
		benchSink(analysis.Interference(res.JFrames, res.Exchanges, 50, isAP))
		benchSink(analysis.Protection(res.JFrames, hourUS, hourUS))
		benchSink(analysis.Diagnose(res.JFrames, res.Exchanges))
		benchSink(analysis.TCPLoss(analysis.TransportFlowLosses(res.Transport, 5)))
		benchSink(analysis.DetectHandoffs(res.Exchanges, isAP))
		return time.Since(t)
	})
	benchSinkDump = nil

	// The jigd trajectory: replay the directory into a rotating capture
	// (the daemon's input shape), tail it, and run the same pass set
	// behind a windowed monitor on the serial pipeline — per-window
	// finalize and eviction, exactly the daemon's bounded-state path. The
	// replay itself is setup, not part of the measured merge.
	const windowUS = 5_000_000
	capDir := dir + ".capture"
	if err := scenario.Replay(scenario.ReplayConfig{
		SrcDir: dir, DstDir: capDir, SegmentUS: windowUS, MarkDone: true,
	}); err != nil {
		log.Fatalf("%s: replay: %v", name, err)
	}
	tail := tracefile.NewTailSet(capDir)
	if _, err := tail.Scan(); err != nil {
		log.Fatalf("%s: scan capture: %v", name, err)
	}
	tail.Finish() // capture is complete: readers must drain, not block
	wPasses, err := analysis.NewPasses("all", params)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	mon, err := serve.NewMonitor(serve.MonitorConfig{WindowUS: windowUS, Passes: wPasses})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	jigdCfg := ccfg
	jigdCfg.Workers = 1 // the daemon's serial live path
	jigdCfg.SnapshotEveryUS = windowUS
	jigdCfg.Passes = []core.Pass{mon}
	jigd = measure("jigd_windowed", tail.TraceSet(), jigdCfg, func(*core.Result) time.Duration {
		t := time.Now()
		mon.Flush()
		return time.Since(t)
	})
	jigd.WindowsClosed = mon.Summary().WindowsClosed
	if err := os.RemoveAll(capDir); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return stream, inmem, inline, posthoc, jigd, sweep
}

// benchSinkDump keeps finalized reports reachable until both measurements
// complete, so the comparison charges each mode its report footprint.
var benchSinkDump []any

func benchSink(v any) { benchSinkDump = append(benchSinkDump, v) }

// benchPreset resolves a preset name for -bench-presets and -sweep-scale
// (the shared scenario.Preset registry, minus the empty-name default).
func benchPreset(name string) (scenario.Config, error) {
	if name == "" {
		return scenario.Config{}, fmt.Errorf("empty preset name")
	}
	return scenario.Preset(name)
}
