// Command jigsaw merges per-radio jigdump traces into a single synchronized
// trace: bootstrap synchronization, frame unification and link/transport
// reconstruction (the paper's full pipeline), printing the merge statistics
// and optionally a Figure-2-style visualization of a time window.
//
// Traces are streamed from the directory (file-backed sources, one
// decompressed block per radio in memory), so a trace set far larger than
// RAM merges in bounded memory.
//
// Usage:
//
//	jigsaw traces/ [-viz 1.5s -vizdur 5ms]
//	jigsaw -in traces/        # equivalent flag spelling
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jigsaw: ")
	var (
		in      = flag.String("in", "traces", "directory of radio traces + meta.json")
		viz     = flag.Duration("viz", -1, "visualize the merged trace at this offset (e.g. 1.5s)")
		vizdur  = flag.Duration("vizdur", 5*time.Millisecond, "visualization window length")
		width   = flag.Int("width", 100, "visualization width in columns")
		workers = flag.Int("workers", 0, "pipeline workers (1 = inline on one goroutine, otherwise the three-stage pipeline; 0 = GOMAXPROCS)")
	)
	flag.Parse()
	dir := *in
	if flag.NArg() == 1 {
		dir = flag.Arg(0)
	} else if flag.NArg() > 1 {
		log.Fatalf("expected at most one trace directory argument, got %q", flag.Args())
	}

	traces, err := tracefile.OpenDir(dir)
	if err != nil {
		log.Fatal(err)
	}

	meta, err := scenario.ReadMeta(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Tolerable: merging still works, but radios on disjoint channels
		// cannot be bridged without the monitor clock groups.
		log.Printf("warning: no %s in %s; merging without clock-group bridging", scenario.MetaFileName, dir)
	case err != nil:
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	// The visualization is a streaming pass over a bounded window, so even
	// a -viz run retains nothing of the merged trace.
	var vizPass *analysis.VizPass
	if *viz >= 0 {
		vizPass = analysis.NewVizPassRelative(viz.Microseconds(), vizdur.Microseconds(), *width)
		cfg.Passes = []core.Pass{vizPass}
	}
	var firstUS, lastUS int64
	var nJF int64
	sink := &core.Sink{OnJFrame: func(j *unify.JFrame) {
		if nJF == 0 {
			firstUS = j.UnivUS
		}
		lastUS = j.UnivUS
		nJF++
	}}
	start := time.Now() //jiglint:allow wallclock (merge progress timing, not simulation)
	res, err := core.RunFrom(traces, meta.ClockGroups, cfg, sink)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start) //jiglint:allow wallclock

	st := res.UnifyStats
	fmt.Printf("radios merged:      %d (root r%d, %d reference frames)\n",
		len(res.Bootstrap.OffsetUS), res.Bootstrap.Root, res.Bootstrap.RefFrames)
	if !res.Bootstrap.Synced() {
		fmt.Printf("UNSYNCED radios:    %v\n", res.Bootstrap.Unsynced)
	}
	fmt.Printf("events consumed:    %d (%.1f%% phy/CRC errors)\n", st.Events,
		100*float64(st.PhyErrors+st.CRCErrors)/float64(max64(st.Events, 1)))
	fmt.Printf("jframes:            %d (%.2f events per jframe)\n", st.JFrames,
		float64(st.Unified)/float64(max64(st.JFrames, 1)))
	fmt.Printf("resyncs applied:    %d\n", st.Resyncs)
	fmt.Printf("dispersion:         p50=%dus p90=%dus p99=%dus\n",
		res.Dispersion.Percentile(0.5), res.Dispersion.Percentile(0.9), res.Dispersion.Percentile(0.99))
	fmt.Printf("frame exchanges:    %d (%d attempts, %.2f%% inferred)\n",
		res.LLCStats.Exchanges, res.LLCStats.Attempts,
		100*float64(res.LLCStats.InferredAttempts)/float64(max64(res.LLCStats.Attempts, 1)))
	fmt.Printf("tcp flows:          %d (%d complete handshakes)\n",
		res.Transport.Stats.Flows, res.Transport.Stats.CompleteFlows)
	fmt.Printf("oracle resolutions: %d, monitor omissions: %d\n",
		res.Transport.Stats.ResolvedByOracle, res.Transport.Stats.MonitorOmissions)
	speedup := float64(lastUS-firstUS) / float64(elapsed.Microseconds()+1)
	fmt.Printf("merge wall time:    %v (%.1fx faster than real time over %d events)\n",
		elapsed.Round(time.Millisecond), speedup, st.Events)

	if vizPass != nil && nJF > 0 {
		fmt.Println(strings.TrimRight(vizPass.Finalize().(string), "\n"))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
