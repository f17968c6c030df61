// Pass-vs-slice parity: the companion to TestParallelMatchesSerial for the
// streaming analysis layer. (It lives in an external test package because
// internal/analysis imports core; TestParallelMatchesSerial itself cannot
// reference the passes without an import cycle.)
//
// For Default(), MixedCC() and Roaming() scenarios, every registered
// analysis pass fed inline by the pipeline must finalize to a report
// identical to a fresh instance of the same pass fed the run's collected
// jframe/exchange slices by the canonical-order replayer
// (core.DriveSlices, the tests' reference driver) — and identical again
// across worker counts, slab sizes and buffer- vs directory-backed trace
// sources. This is the contract that lets the pipeline keep nothing:
// inline output is byte-for-byte what analysis over the whole
// materialized streams would have produced.
package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// parityTraceDir spills a scenario's in-memory traces to a temp directory
// in the trace-directory layout.
func parityTraceDir(t *testing.T, out *scenario.Output) *tracefile.TraceSet {
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

// vizWindowUS is the parity viz pass's window length; relative offset is
// half the scenario day.
const vizWindowUS = 4_000

// parityPasses constructs one fresh instance of every registered pass
// (plus the viz pass, which "all" excludes) for a run.
func parityPasses(t *testing.T, out *scenario.Output) []analysis.Pass {
	t.Helper()
	apSet := scenario.APSet(out.APs)
	params := analysis.PassParams{
		SlotUS:     out.Cfg.HourDur().US64(),
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
		Out:        out,
		VizFromUS:  int64(out.Cfg.Day.SecondsF() * 5e5),
		VizDurUS:   vizWindowUS,
		VizWidth:   96,
	}
	passes, err := analysis.NewPasses("all", params)
	if err != nil {
		t.Fatal(err)
	}
	viz, err := analysis.NewPasses("viz", params)
	if err != nil {
		t.Fatal(err)
	}
	return append(passes, viz...)
}

// finalizeAll collects every pass's report by name.
func finalizeAll(passes []analysis.Pass) map[string]analysis.Report {
	out := make(map[string]analysis.Report, len(passes))
	for _, p := range passes {
		out[p.Name()] = p.Finalize()
	}
	return out
}

func TestPassParity(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() scenario.Config
	}{
		{"default", func() scenario.Config {
			cfg := scenario.Default()
			cfg.Pods, cfg.APs, cfg.Clients = 5, 5, 8
			return cfg
		}},
		{"mixedCC", func() scenario.Config {
			cfg := scenario.MixedCC()
			cfg.Pods, cfg.APs, cfg.Clients = 5, 5, 8
			return cfg
		}},
		{"roaming", func() scenario.Config {
			cfg := scenario.Roaming()
			cfg.Pods, cfg.APs, cfg.Clients = 5, 9, 8
			cfg.MobileClients = 3
			cfg.MoveSpeedMPS = 6
			return cfg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Seed = 1
			cfg.Day = 30 * sim.Second
			out, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bufTS := out.TraceSet()
			dirTS := parityTraceDir(t, out)
			live := unify.LiveJFrames()

			run := func(ts *tracefile.TraceSet, workers, slab int, sink *core.Sink) (*core.Result, map[string]analysis.Report) {
				defer core.SetSlabSize(slab)()
				ccfg := core.DefaultConfig()
				ccfg.Workers = workers
				passes := parityPasses(t, out)
				ccfg.Passes = analysis.CorePasses(passes)
				res, err := core.RunFrom(ts, out.ClockGroups, ccfg, sink)
				if err != nil {
					t.Fatal(err)
				}
				return res, finalizeAll(passes)
			}

			// Reference: the inline run with a collecting sink, so the same
			// run yields both inline-pass reports and the slices to replay.
			var kept core.Collection
			_, ref := run(bufTS, 1, 64, kept.Sink())

			replayed := parityPasses(t, out)
			core.DriveSlices(analysis.CorePasses(replayed), kept.JFrames, kept.Exchanges)
			slices := finalizeAll(replayed)
			if n := len(analysis.PassSpecs()); len(slices) != n {
				t.Fatalf("replayed %d passes, want every registered one (%d)", len(slices), n)
			}
			for name, want := range slices {
				got, ok := ref[name]
				if !ok {
					t.Fatalf("pass %q missing from inline run", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: inline pass report differs from the same pass over replayed slices:\n inline: %+v\n slices: %+v", name, got, want)
				}
			}
			kept.Release()
			if n := unify.LiveJFrames() - live; n != 0 {
				t.Errorf("%d pooled jframes still referenced after releasing the collection", n)
			}

			// Worker counts, slab sizes and trace sources must not change
			// any report.
			variants := []struct {
				ts            *tracefile.TraceSet
				workers, slab int
			}{
				{bufTS, 2, 1}, {bufTS, 2, 64}, {bufTS, 8, 2},
				{dirTS, 1, 64}, {dirTS, 8, 64},
			}
			for _, v := range variants {
				label := fmt.Sprintf("dir=%v/workers=%d/slab=%d", v.ts == dirTS, v.workers, v.slab)
				_, got := run(v.ts, v.workers, v.slab, nil)
				for name, want := range ref {
					if !reflect.DeepEqual(got[name], want) {
						t.Errorf("%s: pass %q differs from the inline reference:\n got:  %+v\n want: %+v", label, name, got[name], want)
					}
				}
			}
		})
	}
}

// TestReportGolden pins what the pipeline reports, not only what it is fed
// (scenario's TestDefaultTraceGolden pins the input records): a sha256 over
// the reconstructor's counters and the Section encoding of every
// registered pass, in registry order, on scenario.Default(). Any change to unify, llc, transport or a pass that
// moves a reported number moves this digest; it is the same at every
// Workers setting.
func TestReportGolden(t *testing.T) {
	const want = "0eed7f68c194fbb0fa1e46b770686dd04e0e1fd5b306473b013a91475fa0bce8"
	out, err := scenario.Run(scenario.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		passes := parityPasses(t, out)
		if n := len(analysis.PassSpecs()); len(passes) != n {
			t.Fatalf("built %d passes, want every registered one (%d)", len(passes), n)
		}
		ccfg := core.DefaultConfig()
		ccfg.Workers = workers
		ccfg.Passes = analysis.CorePasses(passes)
		res, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", res.LLCStats)
		for _, p := range passes {
			sec, err := analysis.SectionJSON(p.Name(), p.Finalize())
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(sec)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("workers=%d: report digest %s, want %s", workers, got, want)
		}
	}
}
