package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hmerge"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tcpwire"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/unify"
)

// jfDigest hashes the jframe stream a pipeline run emits — universal
// timestamp, wire bytes, rate, channel, validity and every instance — so
// two runs can be compared byte for byte without retaining the frames.
type jfDigest struct {
	h interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
}

func newJFDigest() *jfDigest { return &jfDigest{h: sha256.New()} }

func (d *jfDigest) observe(j *unify.JFrame) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
	put(j.UnivUS)
	put(int64(j.Rate))
	put(int64(j.Channel))
	put(int64(j.WireLen))
	put(j.DispersionUS)
	flags := int64(0)
	if j.Valid {
		flags |= 1
	}
	if j.PhyOnly {
		flags |= 2
	}
	put(flags)
	put(int64(len(j.Wire)))
	d.h.Write(j.Wire)
	for _, in := range j.Instances {
		put(int64(in.Radio))
		put(in.LocalUS)
		put(in.UnivUS)
		put(int64(in.RSSIdBm))
	}
}

func (d *jfDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// writeTraceDir spills a scenario's in-memory traces to a temp directory in
// the trace-directory layout, returning a directory-backed TraceSet.
func writeTraceDir(t *testing.T, out *scenario.Output) *tracefile.TraceSet {
	t.Helper()
	dir := t.TempDir()
	for r, buf := range out.Traces {
		if err := os.WriteFile(tracefile.TracePath(dir, r), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// flowSummary condenses one reconstructed flow for cross-run comparison:
// its Fig. 11 loss row (zero for a flow without a complete handshake).
type flowSummary struct {
	handshake bool
	firstUS   int64
	lastUS    int64
	loss      transport.FlowLossRate
}

func summarizeFlows(ta *transport.Analyzer) map[tcpwire.FlowKey]flowSummary {
	out := make(map[tcpwire.FlowKey]flowSummary)
	for _, f := range ta.Flows() {
		out[f.Key] = flowSummary{handshake: f.HandshakeComplete, firstUS: f.FirstUS, lastUS: f.LastUS}
	}
	for _, r := range ta.LossRates(0) {
		s := out[r.Key]
		s.loss = r
		out[r.Key] = s
	}
	return out
}

// analyzeExchanges feeds a run's exchanges, in delivery order, to a fresh
// transport analyzer.
func analyzeExchanges(exs []*llc.Exchange) *transport.Analyzer {
	ta := transport.NewAnalyzer()
	for _, ex := range exs {
		ta.AddExchange(ex)
	}
	return ta
}

// collected is one run's result plus the products a Collection retained
// from it.
type collected struct {
	*Result
	Collection
}

// requireIdentical asserts two pipeline runs agree on everything the
// paper's analyses consume: unification stats, dispersion histogram,
// jframe count, the exact canonical exchange sequence, reconstruction
// stats, transport stats and per-flow summaries.
func requireIdentical(t *testing.T, label string, a, b *collected) {
	t.Helper()
	if a.UnifyStats != b.UnifyStats {
		t.Errorf("%s: unify stats differ:\n  a=%+v\n  b=%+v", label, a.UnifyStats, b.UnifyStats)
	}
	if a.LLCStats != b.LLCStats {
		t.Errorf("%s: llc stats differ:\n  a=%+v\n  b=%+v", label, a.LLCStats, b.LLCStats)
	}
	if a.Dispersion.Total != b.Dispersion.Total || a.Dispersion.Tail != b.Dispersion.Tail {
		t.Errorf("%s: dispersion totals differ: %d/%d vs %d/%d", label,
			a.Dispersion.Total, a.Dispersion.Tail, b.Dispersion.Total, b.Dispersion.Tail)
	}
	for i := range a.Dispersion.Bins {
		if a.Dispersion.Bins[i] != b.Dispersion.Bins[i] {
			t.Errorf("%s: dispersion bin %d differs: %d vs %d", label, i,
				a.Dispersion.Bins[i], b.Dispersion.Bins[i])
			break
		}
	}
	if len(a.JFrames) != len(b.JFrames) {
		t.Errorf("%s: jframe count differs: %d vs %d", label, len(a.JFrames), len(b.JFrames))
	}
	if len(a.Exchanges) != len(b.Exchanges) {
		t.Fatalf("%s: exchange count differs: %d vs %d", label, len(a.Exchanges), len(b.Exchanges))
	}
	for i := range a.Exchanges {
		x, y := a.Exchanges[i], b.Exchanges[i]
		if x.CloseUS != y.CloseUS || x.StartUS != y.StartUS || x.EndUS != y.EndUS ||
			x.Transmitter != y.Transmitter || x.Receiver != y.Receiver ||
			x.Seq != y.Seq || x.Broadcast != y.Broadcast ||
			x.Delivery != y.Delivery || x.Inferred != y.Inferred ||
			len(x.Attempts) != len(y.Attempts) {
			t.Fatalf("%s: exchange %d differs:\n  a=%+v\n  b=%+v", label, i, x, y)
		}
	}
	ta, tb := analyzeExchanges(a.Exchanges), analyzeExchanges(b.Exchanges)
	if ta.Stats != tb.Stats {
		t.Errorf("%s: transport stats differ:\n  a=%+v\n  b=%+v", label,
			ta.Stats, tb.Stats)
	}
	fa, fb := summarizeFlows(ta), summarizeFlows(tb)
	if len(fa) != len(fb) {
		t.Fatalf("%s: flow count differs: %d vs %d", label, len(fa), len(fb))
	}
	for k, sa := range fa {
		sb, ok := fb[k]
		if !ok {
			t.Errorf("%s: flow %v missing from second run", label, k)
			continue
		}
		if sa != sb {
			t.Errorf("%s: flow %v differs: %+v vs %+v", label, k, sa, sb)
		}
	}
}

// TestParallelMatchesSerial is the determinism contract of the one driver:
// across seeds, congestion-control mixes and client mobility, every
// Workers setting — inline (1) or the three-stage pipeline (2, 8) — at
// every slab size (1 = a channel hop per item, 2 = slabs that split every
// burst, 64 = the shipped size) must produce the Workers=1 result: the same
// jframe stream, the same exchanges in the same order, the same stats, and
// every slab back in its pool.
func TestParallelMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(seed int64) scenario.Config
	}{
		{"fixed", func(seed int64) scenario.Config {
			cfg := scenario.Default()
			cfg.Seed = seed
			cfg.Pods, cfg.APs, cfg.Clients = 5, 5, 8
			return cfg
		}},
		// Reno+CUBIC+BBR contending for a finite bottleneck queue: cwnd
		// dynamics, pacing timers and queue drops must all replay
		// identically through the pipeline.
		{"mixedCC", func(seed int64) scenario.Config {
			cfg := scenario.MixedCC()
			cfg.Seed = seed
			cfg.Pods, cfg.APs, cfg.Clients = 5, 5, 8
			return cfg
		}},
		// Mobile clients handing off between APs mid-flow: the trace is
		// full of disassoc/reassoc sequences, scan probe bursts and
		// retries against departed stations. More APs so every floor
		// offers a roam target, and a brisk walking speed so handoffs land
		// inside the short day.
		{"roaming", func(seed int64) scenario.Config {
			cfg := scenario.Roaming()
			cfg.Seed = seed
			cfg.Pods, cfg.APs, cfg.Clients = 5, 9, 8
			cfg.MobileClients = 3
			cfg.MoveSpeedMPS = 6
			return cfg
		}},
	}
	for _, tc := range cases {
		seeds := []int64{1, 2, 3}
		if tc.name != "fixed" {
			seeds = []int64{1, 2}
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := tc.cfg(seed)
				cfg.Day = 30 * sim.Second
				out, err := scenario.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "roaming" && len(out.Handoffs) == 0 {
					t.Fatal("roaming scenario produced no handoffs; the case is not exercising handoff-heavy traces")
				}
				bufTS := out.TraceSet()
				dirTS := writeTraceDir(t, out)
				live := unify.LiveJFrames()

				run := func(ts *tracefile.TraceSet, workers, slab int) (*collected, string) {
					defer SetSlabSize(slab)()
					ccfg := DefaultConfig()
					ccfg.Workers = workers
					got := &collected{}
					res, err := RunFrom(ts, out.ClockGroups, ccfg, got.Sink())
					if err != nil {
						t.Fatal(err)
					}
					if n := slabBalance.Load(); n != 0 {
						t.Fatalf("workers=%d/slab=%d: %d slabs outstanding after the run", workers, slab, n)
					}
					got.Result = res
					d := newJFDigest()
					for _, j := range got.JFrames {
						d.observe(j)
					}
					return got, d.sum()
				}

				ref, refDigest := run(bufTS, 1, defaultSlabSize)
				check := func(label string, ts *tracefile.TraceSet, workers, slab int) {
					got, digest := run(ts, workers, slab)
					label = fmt.Sprintf("%s/workers=%d/slab=%d", label, workers, slab)
					requireIdentical(t, label, ref, got)
					if digest != refDigest {
						t.Errorf("%s: jframe stream digest differs from the inline reference", label)
					}
					got.Release()
				}
				// {workers, slab}: the whole pipelined table on the first
				// case, a diagonal of it on the rest. (The inline composition
				// has no slabs to size; its row checks run-to-run determinism.)
				table := [][2]int{{1, 1}, {2, 1}, {2, 64}, {8, 2}}
				if tc.name == "fixed" && seed == 1 {
					table = append(table, [][2]int{{2, 2}, {8, 1}, {8, 64}}...)
				}
				for _, v := range table {
					check("buf", bufTS, v[0], v[1])
				}
				// Directory-backed sources: file-backed vs buffer-backed
				// must be byte-identical — same jframe stream, same
				// analysis output — inline and pipelined.
				check("dir", dirTS, 1, defaultSlabSize)
				check("dir", dirTS, 2, defaultSlabSize)
				ref.Release()
				if n := unify.LiveJFrames() - live; n != 0 {
					t.Errorf("%d pooled jframes still referenced after releasing every collection", n)
				}
			})
		}
	}
}

// corruptMidStream flips bytes in the middle of a file — far enough in that
// the damage surfaces mid-pass, not at open.
func corruptMidStream(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(b) / 2; i < len(b)/2+64; i++ {
		b[i] ^= 0xa5
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSlabPoolBalance is the shutdown contract of the driver, inline and
// pipelined, flat and hierarchical: when RunFrom / RunHierarchicalPaths
// returns — cleanly, after a truncated .jig (a Source fault the unifier
// rides out, reported once the pass completes) or after a corrupt .jfs
// block (a stream error mid-pass) — every stage has unwound. No goroutine
// it started is still running, every slab is back in its pool, and every
// pooled jframe has been released, whether it was delivered or still in
// flight when the error hit.
func TestSlabPoolBalance(t *testing.T) {
	// Two radio-disjoint buildings: the first doubles as the flat input, and
	// the pair makes a two-stream merge in which one stream can fail while
	// the other is still mid-flight.
	bcfg := scenario.Default()
	bcfg.Pods, bcfg.APs, bcfg.Clients = 4, 4, 6
	bcfg.Day = 20 * sim.Second
	second, err := scenario.Run(scenario.CampusConfig{Buildings: 2, Seed: 1, Building: bcfg}.BuildingConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	outs := [2]*scenario.Output{scenarioOut(t), second}
	dir := t.TempDir()
	var dirs, streams [2]string
	for k, out := range outs {
		dirs[k] = filepath.Join(dir, scenario.BuildingDirName(k))
		if err := os.Mkdir(dirs[k], 0o755); err != nil {
			t.Fatal(err)
		}
		for r, buf := range out.Traces {
			if err := os.WriteFile(tracefile.TracePath(dirs[k], r), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		streams[k] = dirs[k] + ".jfs"
		if _, err := hmerge.UnifyDir(dirs[k], streams[k], out.ClockGroups, hmerge.UnifyConfig{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	out, goodDir := outs[0], dirs[0]

	// The damaged inputs: building 0 with its largest trace cut mid-block
	// (far past the bootstrap window), and building 1's stream with a
	// corrupt block half way through.
	badDir := filepath.Join(dir, "truncated")
	if err := os.Mkdir(badDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var victim int32 = -1
	for r, buf := range out.Traces {
		if victim < 0 || buf.Len() > out.Traces[victim].Len() {
			victim = r
		}
	}
	for r, buf := range out.Traces {
		b := buf.Bytes()
		if r == victim {
			b = b[:len(b)-10]
		}
		if err := os.WriteFile(tracefile.TracePath(badDir, r), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	badStream := filepath.Join(dir, "corrupt.jfs")
	for _, ext := range []string{"", ".json"} {
		b, err := os.ReadFile(streams[1] + ext)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(badStream+ext, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corruptMidStream(t, badStream)

	flat := func(dir string) func(Config) error {
		return func(cfg Config) error {
			ts, err := tracefile.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunFrom(ts, out.ClockGroups, cfg, nil)
			return err
		}
	}
	hier := func(paths ...string) func(Config) error {
		return func(cfg Config) error {
			_, err := RunHierarchicalPaths(paths, cfg, nil)
			return err
		}
	}
	cases := []struct {
		name    string
		run     func(Config) error
		wantErr string // "" = must succeed
	}{
		{"flat/clean", flat(goodDir), ""},
		{"flat/truncated-jig", flat(badDir), fmt.Sprintf("core: trace for radio %d: ", victim)},
		{"hier/clean", hier(streams[0], streams[1]), ""},
		{"hier/corrupt-jfs", hier(streams[0], badStream), "core: jframe stream: "},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			for _, slab := range []int{1, 64} {
				label := fmt.Sprintf("%s/workers=%d/slab=%d", tc.name, workers, slab)
				goroutines := runtime.NumGoroutine()
				frames := unify.LiveJFrames()
				restore := SetSlabSize(slab)
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.Passes = []Pass{nopPass{}}
				err := tc.run(cfg)
				restore()
				switch {
				case tc.wantErr == "" && err != nil:
					t.Fatalf("%s: %v", label, err)
				case tc.wantErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.wantErr)):
					t.Fatalf("%s: err = %v, want prefix %q", label, err, tc.wantErr)
				}
				if n := slabBalance.Load(); n != 0 {
					t.Errorf("%s: %d slabs outstanding", label, n)
				}
				if n := unify.LiveJFrames() - frames; n != 0 {
					t.Errorf("%s: %d pooled jframes still referenced", label, n)
				}
				if n := leakedGoroutines(goroutines); n > 0 {
					t.Errorf("%s: %d goroutines outlived the run", label, n)
				}
			}
		}
	}
}

// leakedGoroutines reports how many goroutines are running beyond the
// baseline, allowing a moment for ones that have already signalled
// completion to finish exiting (there is no event to wait on for that).
func leakedGoroutines(baseline int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - baseline
}

// nopPass makes the driver walk its pass dispatch without retaining
// anything.
type nopPass struct{}

func (nopPass) ObserveJFrame(*unify.JFrame)   {}
func (nopPass) ObserveExchange(*llc.Exchange) {}

// TestParallelExchangeOrderCanonical asserts the pipelined run delivers
// exchanges in canonical close order (the order transport analysis
// consumes).
func TestParallelExchangeOrderCanonical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 3
	var got Collection
	defer got.Release()
	runPipeline(t, cfg, got.Sink())
	if len(got.Exchanges) == 0 {
		t.Fatal("no exchanges")
	}
	for i := 1; i < len(got.Exchanges); i++ {
		if exchangeLess(got.Exchanges[i], got.Exchanges[i-1]) {
			t.Fatalf("exchange %d out of canonical order: %d after %d",
				i, got.Exchanges[i].CloseUS, got.Exchanges[i-1].CloseUS)
		}
	}
}
