package core_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/unify"
)

// TestRetainReleaseHammer drives the full pipeline — every registered
// pass plus the frame-retaining viz pass, and a collecting sink that
// retains everything while churning extra Retain/Release pairs — across
// worker counts. Its job is to put the reference-counted frame lifecycle
// under the race detector (`go test -race`): frames cross the stage
// channels while reconstruction, passes and the sink retain and release
// them concurrently, so any unsynchronized refcount or use-after-release
// shows up here. Without -race it still verifies the counted lifecycle
// reaches the same result at every concurrency level, and that every
// frame is back in the pool once the collection is released.
func TestRetainReleaseHammer(t *testing.T) {
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 6
	cfg.Day = 20 * sim.Second
	cfg.Seed = 11
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := out.TraceSet()
	live := unify.LiveJFrames()
	apSet := scenario.APSet(out.APs)
	params := analysis.PassParams{
		SlotUS:     out.Cfg.HourDur().US64(),
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
		Out:        out,
		VizFromUS:  int64(out.Cfg.Day.SecondsF() * 5e5),
		VizDurUS:   4_000,
		VizWidth:   96,
	}

	type outcome struct {
		unify     unify.Stats
		exchanges int
		jframes   int
	}
	var want outcome
	for _, workers := range []int{1, 2, 4} {
		passes, err := analysis.NewPasses("all", params)
		if err != nil {
			t.Fatal(err)
		}
		viz, err := analysis.NewPasses("viz", params)
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, viz...)

		ccfg := core.DefaultConfig()
		ccfg.Workers = workers
		ccfg.Passes = analysis.CorePasses(passes)
		// The sink churns an extra retain/release pair per frame, so the
		// atomic refcount sees contention beyond the pipeline's own.
		var kept core.Collection
		sink := kept.Sink()
		collect := sink.OnJFrame
		sink.OnJFrame = func(j *unify.JFrame) {
			j.Retain()
			j.Release()
			collect(j)
		}
		res, err := core.RunFrom(ts, out.ClockGroups, ccfg, sink)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, p := range passes {
			if p.Finalize() == nil {
				t.Fatalf("workers=%d: pass %s returned no report", workers, p.Name())
			}
		}
		got := outcome{unify: res.UnifyStats, exchanges: len(kept.Exchanges), jframes: len(kept.JFrames)}
		if workers == 1 {
			want = got
			if want.exchanges == 0 || want.jframes == 0 {
				t.Fatal("hammer scenario produced no traffic")
			}
		}
		if got != want {
			t.Fatalf("workers=%d: outcome %+v differs from serial %+v", workers, got, want)
		}
		// Retained frames must still be alive and consistent after the
		// run: spot-check that the kept slice is readable end to end.
		var sum int64
		for _, j := range kept.JFrames {
			sum += j.UnivUS + int64(len(j.Wire))
		}
		_ = fmt.Sprintf("%d", sum)
		kept.Release()
		if n := unify.LiveJFrames() - live; n != 0 {
			t.Fatalf("workers=%d: %d pooled jframes still referenced after releasing the collection", workers, n)
		}
	}
}
