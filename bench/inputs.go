package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/hmerge"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// The inputs. The issue sized them at Day = 60 s; the driver's time cap
// (114 runs, each with its set-up repeated, in 57 minutes: 30 s a run,
// on a box whose speed halves for minutes at a time) forced shorter days,
// two set-ups a run and a low floor on iterations. Radio and building
// counts are the presets'. The live workload replays its own paper input,
// livePace x seconds long.
const (
	defaultPaperDaySec  = 20 // paper20: scenario.PaperScale, 39 pods / 156 radios / 39 APs
	defaultCampusDaySec = 5  // campus2x5: scenario.Campus, 2 buildings x 96 radios, mixed CC
	campusBuildings     = 2
	defaultSetups       = 2 // set-ups per run; setup_s is their median
	defaultMinIters     = 3
)

// harness holds one process's settings and scratch space.
type harness struct {
	seed         int64
	seconds      float64
	paperDaySec  float64
	campusDaySec float64
	pods         int // 0: the presets' pod counts; the smoke test shrinks them
	setups       int
	minIters     int
	root         string // the checkout: where cmd/jigd lives
	work         string // per-process scratch, removed by cleanup
}

func newHarness(seed int64, seconds float64, workRoot string) (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	if work, err = filepath.Abs(work); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	return &harness{
		seed: seed, seconds: seconds,
		paperDaySec: defaultPaperDaySec, campusDaySec: defaultCampusDaySec,
		setups: defaultSetups, minIters: defaultMinIters,
		root: root, work: work,
	}, nil
}

func (h *harness) cleanup() error {
	if err := os.RemoveAll(h.work); err != nil {
		return fmt.Errorf("removing work dir: %w", err)
	}
	return nil
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "jigd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (cmd/jigd) above the working directory")
		}
		dir = parent
	}
}

// How --seed makes an input. The simulator's own seed moves the traffic
// volume by +-25 % (a day holds only a few hundred heavy-tailed flows), which
// would make every size-dependent metric incomparable between seeds. So
// the air is simulated once, from scenarioSeed, and --seed decides what the
// monitors captured of it: every record is dropped independently with
// probability captureLoss, as a real monitor misses frames. Seeds then give
// different traces (different instances per jframe, frames lost outright)
// with the same statistics.
const (
	scenarioSeed = 1
	captureLoss  = 0.05
)

// genPaper simulates the paper deployment, thins its capture by h.seed
// into dir and returns the monitor records kept.
func (h *harness) genPaper(daySec float64, dir string) (int64, error) {
	raw := dir + ".raw"
	defer os.RemoveAll(raw)
	cfg := scenario.PaperScale()
	cfg.Day, cfg.Seed, cfg.SpillDir = sim.Seconds(daySec), scenarioSeed, raw
	if h.pods > 0 {
		cfg.Pods, cfg.APs, cfg.Clients = h.pods, h.pods, 2*h.pods
	}
	out, err := scenario.Run(cfg)
	if err != nil {
		return 0, err
	}
	if err := scenario.WriteMeta(raw, scenario.MetaFromOutput(out)); err != nil {
		return 0, err
	}
	return thinDir(raw, dir, h.seed)
}

// genCampus does the same for the campus, building by building.
func (h *harness) genCampus(dir string) (int64, error) {
	raw := dir + ".raw"
	defer os.RemoveAll(raw)
	c := scenario.Campus()
	c.Buildings, c.Seed = campusBuildings, scenarioSeed
	c.Building.Day = sim.Seconds(h.campusDaySec)
	if h.pods > 0 {
		c.Building.Pods, c.Building.APs, c.Building.Clients = h.pods, h.pods, 2*h.pods
	}
	if _, err := scenario.RunCampus(c, raw, 0); err != nil {
		return 0, err
	}
	buildings, err := scenario.ListBuildings(raw)
	if err != nil {
		return 0, err
	}
	var kept int64
	for _, b := range buildings {
		n, err := thinDir(b, filepath.Join(dir, filepath.Base(b)), h.seed)
		if err != nil {
			return 0, err
		}
		kept += n
	}
	return kept, copyFile(filepath.Join(raw, scenario.MetaFileName), filepath.Join(dir, scenario.MetaFileName))
}

// thinDir copies a trace directory, meta.json included, keeping each record
// with probability 1 - captureLoss. Every radio draws from its own
// generator seeded by (seed, radio), so the result does not depend on how
// the radios are spread over the goroutines.
func thinDir(src, dst string, seed int64) (int64, error) {
	ts, err := tracefile.OpenDir(src)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	radios := ts.Radios()
	kept := make([]int64, len(radios))
	err = parallel(len(radios), func(i int) (err error) {
		kept[i], err = thinRadio(ts, radios[i], tracefile.TracePath(dst, radios[i]), seed)
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range kept {
		total += n
	}
	return total, copyFile(filepath.Join(src, scenario.MetaFileName), filepath.Join(dst, scenario.MetaFileName))
}

func thinRadio(ts *tracefile.TraceSet, radio int32, dstPath string, seed int64) (int64, error) {
	rc, err := ts.Open(radio)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	f, err := os.Create(dstPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w := tracefile.NewWriter(bw)
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(radio)))
	r := tracefile.NewReader(rc)
	var kept int64
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		if rng.Float64() < captureLoss {
			continue
		}
		if err := w.WriteRecord(rec); err != nil {
			return 0, err
		}
		kept++
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return kept, f.Close()
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// paperInput is the flat trace directory and its Workers: 1 reference.
type paperInput struct {
	dir     string
	meta    scenario.Meta
	records int64
	ref     runOutput
}

// setupPaper generates the paper deployment's traces into dir and
// computes their reference.
func (h *harness) setupPaper(daySec float64, dir string) (*paperInput, error) {
	records, err := h.genPaper(daySec, dir)
	if err != nil {
		return nil, err
	}
	meta, err := scenario.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	in := &paperInput{dir: dir, meta: meta, records: records}
	if in.ref, err = runFlat(in, 1); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	skipped, err := countRecords(dir, in.ref.unsynced)
	if err != nil {
		return nil, err
	}
	if in.ref.unify.Events != records-skipped {
		return nil, fmt.Errorf("reference run consumed %d records, generator captured %d (%d on unsynchronized radios)",
			in.ref.unify.Events, records, skipped)
	}
	return in, nil
}

// countRecords counts the records of the given radios' traces in dir. The
// unifier never reads a radio the bootstrap could not synchronize, so
// those records are the only ones a run may leave unconsumed.
func countRecords(dir string, radios []int32) (int64, error) {
	if len(radios) == 0 {
		return 0, nil
	}
	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, radio := range radios {
		n, err := scanRadio(ts, radio)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// scanRadio reads and inflates one radio's trace to EOF and returns its
// record count.
func scanRadio(ts *tracefile.TraceSet, radio int32) (int64, error) {
	rc, err := ts.Open(radio)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	r := tracefile.NewReader(rc)
	for n := int64(0); ; n++ {
		if _, err := r.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return 0, fmt.Errorf("radio %d: %w", radio, err)
		}
	}
}

// campusInput is the campus directory, its level-1 streams (whose hashes
// are campus_unify's reference) and, when asked for, the Workers: 1
// reference of the hierarchical run over those streams.
type campusInput struct {
	buildings []string
	meta      scenario.Meta
	records   int64
	streams   []string
	unifyRef  string
	hierRef   runOutput
}

func (h *harness) setupCampus(dir string, withHierRef bool) (*campusInput, error) {
	src := filepath.Join(dir, "traces")
	records, err := h.genCampus(src)
	if err != nil {
		return nil, err
	}
	in := &campusInput{records: records}
	if in.meta, err = scenario.ReadMeta(src); err != nil {
		return nil, err
	}
	if in.buildings, err = scenario.ListBuildings(src); err != nil {
		return nil, err
	}
	streamDir := filepath.Join(dir, "streams")
	metas, err := unifyBuildings(in.buildings, streamDir)
	if err != nil {
		return nil, err
	}
	var events, skipped int64
	for i, m := range metas {
		n, err := countRecords(in.buildings[i], m.Bootstrap.Unsynced)
		if err != nil {
			return nil, err
		}
		skipped += n
		events += m.Unify.Events
		in.streams = append(in.streams, streamPath(streamDir, in.buildings[i]))
	}
	if events != records-skipped {
		return nil, fmt.Errorf("level-1 unify consumed %d records, generator captured %d (%d on unsynchronized radios)",
			events, records, skipped)
	}
	if in.unifyRef, err = hashStreams(in.streams); err != nil {
		return nil, err
	}
	if withHierRef {
		if in.hierRef, err = runHier(in, 1); err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	return in, nil
}

func streamPath(streamDir, buildingDir string) string {
	return filepath.Join(streamDir, filepath.Base(buildingDir)+".jfs")
}

// unifyBuildings is level 1 of the hierarchical merge, as jigunify and
// jiganalyze run it: one hmerge.UnifyDir per building across a pool of
// GOMAXPROCS goroutines, into fresh .jfs files (plus sidecars) in streamDir.
func unifyBuildings(buildings []string, streamDir string) ([]*hmerge.Meta, error) {
	if err := os.RemoveAll(streamDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(streamDir, 0o755); err != nil {
		return nil, err
	}
	metas := make([]*hmerge.Meta, len(buildings))
	err := parallel(len(buildings), func(i int) error {
		meta, err := scenario.ReadMeta(buildings[i])
		if err != nil {
			return err
		}
		metas[i], err = hmerge.UnifyDir(buildings[i], streamPath(streamDir, buildings[i]),
			meta.ClockGroups, hmerge.UnifyConfig{Workers: 1})
		return err
	})
	return metas, err
}

// parallel calls f(0..n-1) across a pool of GOMAXPROCS goroutines and
// returns the lowest-numbered call's error, if any.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// hashStreams digests the .jfs files and their sidecars, in order.
func hashStreams(paths []string) (string, error) {
	sum := sha256.New()
	for _, p := range paths {
		for _, name := range []string{p, hmerge.MetaPath(p)} {
			f, err := os.Open(name)
			if err != nil {
				return "", err
			}
			_, err = io.Copy(sum, f)
			f.Close()
			if err != nil {
				return "", err
			}
		}
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// buildJigd builds the daemon the live workload drives.
func (h *harness) buildJigd(dir string) (string, error) {
	bin := filepath.Join(dir, "jigd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/jigd")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building jigd: %w\n%s", err, out)
	}
	return bin, nil
}

// checkNoEmptyRadio guards the live workload: jigd waits for a sealed
// segment from every roster radio and never starts on an input where one
// radio captured nothing (README.md, known limits).
func checkNoEmptyRadio(in *paperInput) error {
	ts, err := tracefile.OpenDir(in.dir)
	if err != nil {
		return err
	}
	for _, radio := range ts.Radios() {
		rc, err := ts.Open(radio)
		if err != nil {
			return err
		}
		_, err = tracefile.NewReader(rc).Next()
		rc.Close()
		if err == io.EOF {
			return fmt.Errorf("radio %d captured nothing; jigd would wait for it forever", radio)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// repeatSetup sets a workload up h.setups times, each into a fresh
// directory, and returns the last set-up's product with every set-up's
// duration.
func repeatSetup[T any](h *harness, name string, setup func(dir string) (T, error)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < h.setups; i++ {
		dir := filepath.Join(h.work, fmt.Sprintf("%s-setup%d", name, i))
		t0 := time.Now()
		v, err := setup(dir)
		if err != nil {
			return last, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
		if i < h.setups-1 {
			if err := os.RemoveAll(dir); err != nil {
				return last, nil, err
			}
		}
	}
	return last, secs, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of no values is 0.
func median(xs []float64) float64 {
	s, n := sorted(xs), len(xs)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile uses the nearest-rank rule.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(0, min(int(math.Ceil(p*float64(len(s))))-1, len(s)-1))]
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
