// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the skew-compensation, search-window and resync-threshold
// ablations. Shapes (who wins, knees, crossovers) are asserted in the test
// suite; the benches measure cost —
// for the figure benchmarks, one pipeline run with the figure's pass
// attached — and report the headline metrics via b.ReportMetric so
// `go test -bench` output doubles as the experiment record.
package jigsaw

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// benchState caches one scenario + pipeline run shared by all benchmarks
// (regenerating the substrate per benchmark would swamp the measurements).
// The cached pieces are treated as immutable: traces holds its own copy of
// every trace's bytes (not views into out.Traces buffers), and run hands
// each benchmark iteration a fresh TraceSet over them, so re-running the
// pipeline — including from parallel benchmark goroutines — can never alias
// state that another benchmark (or the cached res) still reads.
//
// End-to-end throughput, heap and allocation rates are bench/'s job
// (`bash bench/run.sh`: paper_serial, paper_flat, ...); the benchmarks here
// are the experiment record.
type benchState struct {
	out    *scenario.Output
	res    *core.Result
	traces map[int32][]byte
}

// run executes the pipeline over the cached traces with the given passes
// attached.
func (s *benchState) run(b *testing.B, cfg core.Config, passes ...core.Pass) *core.Result {
	b.Helper()
	cfg.Passes = passes
	res, err := core.RunFrom(tracefile.NewBufferSet(s.traces), s.out.ClockGroups, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

var (
	benchOnce sync.Once
	bench     benchState
)

func setupBench(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		cfg := scenario.Default()
		cfg.Seed = 3
		cfg.Pods, cfg.APs, cfg.Clients = 12, 12, 24
		cfg.Day = 120 * sim.Second
		cfg.BFraction = 0.3
		out, err := scenario.Run(cfg)
		if err != nil {
			panic(err)
		}
		traces := make(map[int32][]byte, len(out.Traces))
		for r, buf := range out.Traces {
			traces[r] = append([]byte(nil), buf.Bytes()...)
		}
		bench = benchState{out: out, traces: traces}
		bench.res = bench.run(b, core.DefaultConfig())
	})
	return &bench
}

// BenchmarkFig4GroupDispersion reports the synchronization quality knees of
// Figure 4 while measuring the unification cost.
func BenchmarkFig4GroupDispersion(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var p90, p99 int64
	for i := 0; i < b.N; i++ {
		res := s.run(b, core.DefaultConfig())
		p90, p99 = res.Dispersion.Percentile(0.90), res.Dispersion.Percentile(0.99)
	}
	b.ReportMetric(float64(p90), "p90-us")
	b.ReportMetric(float64(p99), "p99-us")
}

// BenchmarkTable1TraceSummary regenerates Table 1.
func BenchmarkTable1TraceSummary(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var sum *analysis.TraceSummary
	for i := 0; i < b.N; i++ {
		p := analysis.NewSummaryPass()
		s.run(b, core.DefaultConfig(), p)
		sum = p.Finalize().(*analysis.TraceSummary)
	}
	b.ReportMetric(sum.AvgInstances, "obs/frame")
	b.ReportMetric(sum.ErrorEventPct, "err-%")
}

// BenchmarkFig6Coverage regenerates the wired-trace coverage comparison.
func BenchmarkFig6Coverage(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var cov *analysis.CoverageReport
	for i := 0; i < b.N; i++ {
		p := analysis.NewCoveragePass(s.out)
		s.run(b, core.DefaultConfig(), p)
		cov = p.Finalize().(*analysis.CoverageReport)
	}
	b.ReportMetric(100*cov.Overall, "overall-%")
	b.ReportMetric(100*cov.ClientCoverage, "client-%")
	b.ReportMetric(100*cov.APCoverage, "ap-%")
}

// BenchmarkFig7PodSensitivity reruns the pipeline on reduced pod subsets.
func BenchmarkFig7PodSensitivity(b *testing.B) {
	s := setupBench(b)
	counts := []int{s.out.Cfg.Pods, s.out.Cfg.Pods * 3 / 4, s.out.Cfg.Pods / 2}
	b.ResetTimer()
	var rows []analysis.PodCoverage
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = analysis.PodSweep(s.out, counts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[0].ClientCoverage, "cli-full-%")
	b.ReportMetric(100*rows[len(rows)-1].ClientCoverage, "cli-half-%")
	b.ReportMetric(100*rows[len(rows)-1].APCoverage, "ap-half-%")
}

// BenchmarkFig8TimeSeries regenerates the activity time series.
func BenchmarkFig8TimeSeries(b *testing.B) {
	s := setupBench(b)
	slotUS := s.out.Cfg.HourDur().US64()
	b.ResetTimer()
	var slots []analysis.ActivitySlot
	for i := 0; i < b.N; i++ {
		p := analysis.NewTimeSeriesPass(slotUS)
		s.run(b, core.DefaultConfig(), p)
		slots = p.Finalize().([]analysis.ActivitySlot)
	}
	b.ReportMetric(100*analysis.BroadcastAirtimeShare(slots), "bcast-air-%")
}

// BenchmarkFig9Interference regenerates the interference estimate.
func BenchmarkFig9Interference(b *testing.B) {
	s := setupBench(b)
	apSet := map[dot80211.MAC]bool{}
	for _, ap := range s.out.APs {
		apSet[ap.MAC] = true
	}
	isAP := func(m dot80211.MAC) bool { return apSet[m] }
	b.ResetTimer()
	var rep *analysis.InterferenceReport
	for i := 0; i < b.N; i++ {
		p := analysis.NewInterferencePass(100, isAP)
		s.run(b, core.DefaultConfig(), p)
		rep = p.Finalize().(*analysis.InterferenceReport)
	}
	b.ReportMetric(100*rep.FractionWithInterference, "interfered-%")
	b.ReportMetric(rep.AvgBackgroundLoss, "bg-loss")
	b.ReportMetric(rep.XPercentile(0.9), "X-p90")
}

// BenchmarkFig10Protection regenerates the overprotective-AP analysis.
func BenchmarkFig10Protection(b *testing.B) {
	s := setupBench(b)
	slotUS := s.out.Cfg.HourDur().US64()
	b.ResetTimer()
	var rep *analysis.ProtectionReport
	for i := 0; i < b.N; i++ {
		p := analysis.NewProtectionPass(slotUS, slotUS)
		s.run(b, core.DefaultConfig(), p)
		rep = p.Finalize().(*analysis.ProtectionReport)
	}
	b.ReportMetric(100*rep.PeakAffectedShare, "peak-affected-%")
	b.ReportMetric(rep.PotentialSpeedup, "speedup-bound")
}

// BenchmarkFig11TCPLoss regenerates the TCP loss split.
func BenchmarkFig11TCPLoss(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	var rep *analysis.TCPLossReport
	for i := 0; i < b.N; i++ {
		var rates []analysis.FlowLoss
		for _, r := range s.res.Transport.LossRates(5) {
			rates = append(rates, analysis.FlowLoss{
				DataSegs: r.DataSegs, Losses: r.Losses,
				WirelessLoss: r.WirelessLoss, WiredLoss: r.WiredLoss, LossRate: r.LossRate,
			})
		}
		rep = analysis.TCPLoss(rates)
	}
	b.ReportMetric(100*rep.WirelessShare, "wireless-%")
}

// BenchmarkAblationSkewCompensation compares dispersion with the EWMA
// skew/drift model on and off (§4.2: required at scale).
func BenchmarkAblationSkewCompensation(b *testing.B) {
	s := setupBench(b)
	for _, on := range []bool{true, false} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Unify.SkewCompensation = on
			var p90 int64
			for i := 0; i < b.N; i++ {
				res := s.run(b, cfg)
				p90 = res.Dispersion.Percentile(0.90)
			}
			b.ReportMetric(float64(p90), "p90-us")
		})
	}
}

// BenchmarkAblationSearchWindow sweeps the unifier's search window (paper
// default 10 ms; "dangerously large" windows admit mismerges, tiny windows
// drop slow radios).
func BenchmarkAblationSearchWindow(b *testing.B) {
	s := setupBench(b)
	for _, winUS := range []int64{1_000, 10_000, 100_000} {
		b.Run(formatUS(winUS), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Unify.SearchWindowUS = winUS
			var jf int64
			for i := 0; i < b.N; i++ {
				res := s.run(b, cfg)
				jf = res.UnifyStats.JFrames
			}
			b.ReportMetric(float64(jf), "jframes")
		})
	}
}

// BenchmarkAblationResyncThreshold sweeps the 10 µs dispersion threshold.
func BenchmarkAblationResyncThreshold(b *testing.B) {
	s := setupBench(b)
	for _, thr := range []int64{1, 10, 100} {
		b.Run(formatUS(thr), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Unify.ResyncDispersionUS = thr
			var p90, resyncs int64
			for i := 0; i < b.N; i++ {
				res := s.run(b, cfg)
				p90, resyncs = res.Dispersion.Percentile(0.90), res.UnifyStats.Resyncs
			}
			b.ReportMetric(float64(p90), "p90-us")
			b.ReportMetric(float64(resyncs), "resyncs")
		})
	}
}

// BenchmarkBaselineBeaconSync compares Jigsaw's bootstrap against the
// Yeo-style beacon-only baseline on the same window.
func BenchmarkBaselineBeaconSync(b *testing.B) {
	s := setupBench(b)
	var recs []tracefile.Record
	for _, blob := range s.traces {
		rs, err := tracefile.ReadAll(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.LocalUS < 5_000_000 {
				recs = append(recs, r)
			}
		}
	}
	b.Run("jigsaw", func(b *testing.B) {
		var errP90 int64
		for i := 0; i < b.N; i++ {
			boot, err := timesync.Bootstrap(recs, s.out.ClockGroups)
			if err != nil {
				b.Fatal(err)
			}
			errs := baseline.SyncErrorUS(recs, boot.OffsetUS)
			errP90 = errs[int(float64(len(errs))*0.9)]
		}
		b.ReportMetric(float64(errP90), "syncerr-p90-us")
	})
	b.Run("beacon-only", func(b *testing.B) {
		var errP90 int64
		for i := 0; i < b.N; i++ {
			res := baseline.BeaconSync(recs)
			errs := baseline.SyncErrorUS(recs, res.OffsetUS)
			errP90 = errs[int(float64(len(errs))*0.9)]
		}
		b.ReportMetric(float64(errP90), "syncerr-p90-us")
	})
}

// BenchmarkBaselineNaiveMerge measures how little a mergecap-style merge
// deduplicates compared to Jigsaw's unifier.
func BenchmarkBaselineNaiveMerge(b *testing.B) {
	s := setupBench(b)
	traces := map[int32][]tracefile.Record{}
	var total int
	for radio, blob := range s.traces {
		rs, err := tracefile.ReadAll(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		traces[radio] = rs
		total += len(rs)
	}
	b.ResetTimer()
	var collapsed int
	for i := 0; i < b.N; i++ {
		_, collapsed = baseline.NaiveMerge(traces, 100)
	}
	b.StopTimer()
	b.ReportMetric(100*float64(collapsed)/float64(total), "collapsed-%")
	jig := 100 * float64(s.res.UnifyStats.Unified-s.res.UnifyStats.JFrames) / float64(s.res.UnifyStats.Events)
	b.ReportMetric(jig, "jigsaw-collapsed-%")
}

// BenchmarkUnifierOnly isolates the unification stage from reconstruction.
func BenchmarkUnifierOnly(b *testing.B) {
	s := setupBench(b)
	perRadio := map[int32][]tracefile.Record{}
	var window []tracefile.Record
	for radio, blob := range s.traces {
		rs, err := tracefile.ReadAll(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		perRadio[radio] = rs
		for _, r := range rs {
			if r.LocalUS < 1_000_000 {
				window = append(window, r)
			}
		}
	}
	boot, err := timesync.Bootstrap(window, s.out.ClockGroups)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources := map[int32]unify.Source{}
		for radio, rs := range perRadio {
			sources[radio] = unify.NewSliceSource(rs)
		}
		u := unify.New(unify.DefaultConfig(), sources, boot)
		if _, err := u.Drain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameCodec measures the 802.11 encode/decode hot path.
func BenchmarkFrameCodec(b *testing.B) {
	f := dot80211.NewData(
		dot80211.MAC{2, 1}, dot80211.MAC{2, 2}, dot80211.MAC{2, 3},
		1234, make([]byte, 1460))
	wire := f.Encode()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dot80211.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(int64(len(wire)))
}

// BenchmarkTracefileRoundTrip measures the jigdump format.
func BenchmarkTracefileRoundTrip(b *testing.B) {
	s := setupBench(b)
	var radio int32 = -1
	var blob []byte
	for r, bs := range s.traces {
		if blob == nil || len(bs) > len(blob) {
			radio, blob = r, bs
		}
	}
	_ = radio
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := tracefile.ReadAll(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("empty trace")
		}
	}
}

func formatUS(us int64) string {
	if us >= 1000 {
		return fmt.Sprintf("%dms", us/1000)
	}
	return fmt.Sprintf("%dus", us)
}
