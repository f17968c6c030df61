// Command jigsim runs the building-scale 802.11b/g substrate simulation and
// writes per-radio jigdump traces, the wired distribution-network trace,
// and a ground-truth summary to a directory.
// Traces stream to disk as the monitor radios produce them (the scenario's
// SpillDir machinery), so peak memory is independent of capture length —
// the building-scale preset generates trace sets far larger than RAM.
//
// Usage:
//
//	jigsim -o traces/ -pods 39 -aps 39 -clients 64 -day 240s [-seed 1]
//	jigsim -o traces/ -preset building    # out-of-core §5-scale deployment
//
// Congestion control: -cc assigns per-flow controllers, either one
// algorithm ("-cc bbr") or a weighted mix ("-cc reno=0.5,cubic=0.3,bbr=0.2");
// the default (empty) keeps the fixed-window compatibility mode. With a mix,
// -queue-pkts / -bottleneck-mbps bound the wired bottleneck FIFO so the
// controllers have real queue dynamics to fight over.
//
// Mobility: -mobility N makes the first N clients walk waypoint paths with
// the RSSI-threshold roaming state machine enabled (-mobile-speed-mps,
// -roam-hysteresis-db tune it); the run log then reports handoff counts,
// mean handoff latency and the per-CC disruption table.
//
// Live replay: -replay re-emits an existing trace directory into a
// growing capture directory of rotating sealed segments — the input shape
// jigd tails:
//
//	jigsim -replay traces/ -o capture/ -pace 10 -segment 2s
//
// -pace R plays trace time at R× wall-clock speed (0 = as fast as
// possible); -segment sets the rotation period in trace time. The
// capture-done marker is written at the end so tailing daemons finish.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jigsim: ")
	var (
		out     = flag.String("out", "traces", "output directory")
		outS    = flag.String("o", "", "output directory (shorthand for -out)")
		preset  = flag.String("preset", "", "scenario preset: default, paper, mixedcc, roaming, building (flags below override its fields)")
		pods    = flag.Int("pods", 0, "sensor pods (4 radios each); paper scale: 39 (0 = preset value)")
		aps     = flag.Int("aps", 0, "production APs; paper scale: 39 (0 = preset value)")
		clients = flag.Int("clients", 0, "wireless clients (0 = preset value)")
		day     = flag.Duration("day", 0, "compressed day duration (0 = preset value)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		bfrac   = flag.Float64("bfrac", 0.2, "fraction of 802.11b clients")
		ccSpec  = flag.String("cc", "", "per-flow congestion control: name or weighted mix, e.g. reno=0.5,cubic=0.3,bbr=0.2 (empty = preset value)")
		qPkts   = flag.Int("queue-pkts", 0, "wired bottleneck FIFO depth in packets (0 = preset value)")
		btlMbps = flag.Float64("bottleneck-mbps", 0, "wired bottleneck drain rate in Mbps (0 = preset value)")

		mobility  = flag.Int("mobility", 0, "number of mobile clients walking waypoint paths (0 = preset value)")
		moveSpeed = flag.Float64("mobile-speed-mps", 0, "mobile clients' walking speed in m/s (0 = 1.2)")
		roamHyst  = flag.Float64("roam-hysteresis-db", 0, "dB a candidate AP must beat the serving AP by before a mobile client roams (0 = 6)")

		campus        = flag.Int("campus", 0, "generate a campus of this many buildings into -o (building-NN subdirectories; scenario.Campus template, -pods/-aps/-clients/-day override per building)")
		campusWorkers = flag.Int("campus-workers", 0, "campus: concurrent building simulations (0 = GOMAXPROCS)")

		replaySrc = flag.String("replay", "", "replay this trace directory into -o as a live capture (instead of simulating)")
		pace      = flag.Float64("pace", 0, "replay: trace-time speedup over wall clock (0 = as fast as possible)")
		segment   = flag.Duration("segment", 2*time.Second, "replay: segment rotation period in trace time")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (did you mean -o %s?)", flag.Args(), flag.Arg(0))
	}
	dir := *out
	if *outS != "" {
		dir = *outS
	}
	if dir == "" {
		log.Fatal("empty output directory")
	}
	if *replaySrc != "" {
		if err := replay(*replaySrc, dir, *pace, *segment); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *campus > 0 {
		camp := scenario.Campus()
		camp.Buildings = *campus
		camp.Seed = *seed
		if *pods != 0 {
			camp.Building.Pods = *pods
		}
		if *aps != 0 {
			camp.Building.APs = *aps
		}
		if *clients != 0 {
			camp.Building.Clients = *clients
		}
		if *day != 0 {
			camp.Building.Day = sim.Time(day.Nanoseconds())
		}
		start := time.Now() //jiglint:allow wallclock (generation progress timing)
		records, err := scenario.RunCampus(camp, dir, *campusWorkers)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("campus: %d buildings (%d radios) simulated %v each in %v, %d monitor records, traces in %s",
			camp.Buildings, camp.NumRadios(), time.Duration(camp.Building.Day),
			time.Since(start).Round(time.Millisecond), records, dir) //jiglint:allow wallclock
		return
	}

	cfg, err := scenario.Preset(*preset)
	if err != nil {
		log.Fatal(err)
	}
	if *pods != 0 {
		cfg.Pods = *pods
	}
	if *aps != 0 {
		cfg.APs = *aps
	}
	if *clients != 0 {
		cfg.Clients = *clients
	}
	if *pods < 0 || *aps < 0 || *clients < 0 {
		log.Fatalf("negative deployment size (pods=%d aps=%d clients=%d)", *pods, *aps, *clients)
	}
	if *day < 0 {
		log.Fatalf("negative -day %v", *day)
	}
	if *day != 0 {
		cfg.Day = sim.Time(day.Nanoseconds())
	}
	cfg.Seed = *seed
	cfg.BFraction = *bfrac
	if *bfrac < 0 || *bfrac > 1 {
		log.Fatalf("-bfrac %v outside [0,1]", *bfrac)
	}
	if *ccSpec != "" {
		mix, err := cc.ParseMixSpec(*ccSpec)
		if err != nil {
			log.Fatal(err)
		}
		m, err := cc.NewMix(mix)
		if err != nil {
			log.Fatal(err)
		}
		if m == nil {
			// "-cc fixed" means the compatibility path itself: a nil mix
			// draws nothing from the workload rng, keeping traces
			// bit-identical.
			mix = nil
		}
		cfg.CCMix = mix
	}
	if *qPkts != 0 {
		cfg.WiredQueuePkts = *qPkts
	}
	if *btlMbps != 0 {
		cfg.WiredBottleneckMbps = *btlMbps
	}
	if *mobility != 0 {
		cfg.MobileClients = *mobility
	}
	if *moveSpeed != 0 {
		cfg.MoveSpeedMPS = *moveSpeed
	}
	if *roamHyst != 0 {
		cfg.RoamHysteresisDB = *roamHyst
	}
	// Stream traces straight into the output directory: generation never
	// holds a whole trace in memory. Clear any earlier run's radio files
	// first — a rerun at a smaller scale (or with the pre-directory
	// radioNNN.jig naming) must not leave stale traces for jigsaw to
	// merge alongside the fresh ones.
	if err := clearStaleTraces(dir); err != nil {
		log.Fatal(err)
	}
	cfg.SpillDir = dir

	start := time.Now() //jiglint:allow wallclock (generation progress timing)
	res, err := scenario.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := scenario.WriteMeta(dir, scenario.MetaFromOutput(res)); err != nil {
		log.Fatal(err)
	}

	log.Printf("simulated %v of network time in %v", time.Duration(cfg.Day), time.Since(start).Round(time.Millisecond)) //jiglint:allow wallclock
	log.Printf("%d radios, %d monitor records, %d transmissions, %d wired packets",
		len(res.MonitorClocks), res.MonitorRecords, len(res.Truth), len(res.Wired))
	log.Printf("flows: %d started, %d completed", res.FlowsStarted, res.FlowsCompleted)
	if len(cfg.CCMix) > 0 {
		log.Printf("cc mix %s, per-algorithm shares:", cc.FormatMix(cfg.CCMix))
		for _, line := range splitLines(analysis.FairnessTable(
			analysis.CCFairness(res.FlowCCs, cfg.Day.SecondsF()))) {
			log.Print(line)
		}
	}
	if cfg.MobileClients > 0 {
		completed := 0
		var latSum int64
		for _, h := range res.Handoffs {
			if h.Completed {
				completed++
				latSum += h.LatencyUS()
			}
		}
		mean := 0.0
		if completed > 0 {
			mean = float64(latSum) / float64(completed) / 1e3
		}
		log.Printf("mobility: %d mobile clients, %d handoffs (%d completed), mean handoff latency %.1f ms",
			len(res.MobileMACs), len(res.Handoffs), completed, mean)
		for _, line := range splitLines(analysis.RoamingTable(nil, analysis.RoamDisruptionByCC(res))) {
			log.Print(line)
		}
	}
	log.Printf("traces written to %s", dir)
}

// replay re-emits src into dst as a live capture directory, pacing trace
// time against the wall clock at the requested speedup. The pacing sleep
// is the cmd-edge wall-clock dependency; the library replay itself is
// deterministic.
func replay(src, dst string, pace float64, segment time.Duration) error {
	if pace < 0 {
		return fmt.Errorf("negative -pace %v", pace)
	}
	cfg := scenario.ReplayConfig{
		SrcDir:    src,
		DstDir:    dst,
		SegmentUS: segment.Microseconds(),
		MarkDone:  true,
	}
	if pace > 0 {
		start := time.Now() //jiglint:allow wallclock (replay pacing is wall-clock by definition)
		cfg.Pace = func(relUS int64) {
			due := time.Duration(float64(relUS)/pace) * time.Microsecond
			if ahead := due - time.Since(start); ahead > 0 { //jiglint:allow wallclock (replay pacing)
				time.Sleep(ahead)
			}
		}
	}
	start := time.Now() //jiglint:allow wallclock (progress timing)
	if err := scenario.Replay(cfg); err != nil {
		return err
	}
	log.Printf("replayed %s into %s in %v (pace %.3gx, %v segments)",
		src, dst, time.Since(start).Round(time.Millisecond), pace, segment) //jiglint:allow wallclock
	return nil
}

// clearStaleTraces removes radio trace files, and the index files older
// builds wrote beside them, left in dir by a previous run. Only files
// matching the trace naming convention are touched; a missing directory is
// fine (the scenario creates it).
func clearStaleTraces(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		isIdx := strings.HasSuffix(name, ".idx")
		probe := name
		if isIdx {
			probe = strings.TrimSuffix(name, ".idx") + ".jig"
		}
		if _, ok := tracefile.ParseTraceName(probe); !ok {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("removing stale %s: %w", name, err)
		}
	}
	return nil
}

// splitLines breaks a table into log lines, dropping the trailing blank.
func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out = append(out, l)
		}
	}
	return out
}
