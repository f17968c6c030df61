package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/unify"
)

// resultCounter records every SetResult delivery, and the unify jframe
// count each one carried.
type resultCounter struct {
	calls   int
	results []*core.Result
	jframes []int64
}

func (r *resultCounter) ObserveJFrame(*unify.JFrame)   {}
func (r *resultCounter) ObserveExchange(*llc.Exchange) {}
func (r *resultCounter) SetResult(res *core.Result) {
	r.calls++
	r.results = append(r.results, res)
	r.jframes = append(r.jframes, res.UnifyStats.JFrames)
}

// TestSnapshotEveryUS pins the live-result hook: the pipeline re-delivers
// the aggregate result to ResultSink passes as the watermark advances —
// inline and pipelined alike, at the same points of the product stream, so
// both see the same number of snapshots — and still delivers the final
// SetResult, with the same final result.
func TestSnapshotEveryUS(t *testing.T) {
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 6
	cfg.Day = 20 * sim.Second
	cfg.Seed = 2
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var ref *core.Result
	var refCalls int
	for _, workers := range []int{1, 2} {
		ccfg := core.DefaultConfig()
		ccfg.Workers = workers
		ccfg.SnapshotEveryUS = 2_000_000
		rc := &resultCounter{}
		ccfg.Passes = []core.Pass{rc}
		res, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// ~20 compressed seconds at 2 s snapshots: several mid-run
		// deliveries plus the final one.
		if rc.calls < 3 {
			t.Fatalf("workers=%d: SetResult calls = %d, want >= 3", workers, rc.calls)
		}
		for i, r := range rc.results {
			if r != res {
				t.Fatalf("workers=%d: snapshot %d delivered a different Result pointer", workers, i)
			}
		}
		for i := 1; i < len(rc.jframes); i++ {
			if rc.jframes[i] < rc.jframes[i-1] {
				t.Fatalf("workers=%d: snapshot %d's jframe count went backwards: %v", workers, i, rc.jframes)
			}
		}
		if res.UnifyStats.JFrames == 0 {
			t.Fatalf("workers=%d: final result has no jframes", workers)
		}
		if ref == nil {
			ref, refCalls = res, rc.calls
			continue
		}
		if rc.calls != refCalls {
			t.Errorf("workers=%d: %d SetResult calls, inline run made %d", workers, rc.calls, refCalls)
		}
		if res.UnifyStats != ref.UnifyStats || res.LLCStats != ref.LLCStats || res.Transport.Stats != ref.Transport.Stats {
			t.Errorf("workers=%d: final result differs from the inline run:\n got  %+v %+v %+v\n want %+v %+v %+v", workers,
				res.UnifyStats, res.LLCStats, res.Transport.Stats, ref.UnifyStats, ref.LLCStats, ref.Transport.Stats)
		}
	}
}
