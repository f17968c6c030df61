package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/unify"
)

// resultCounter records every SetResult delivery, the unify jframe count
// each one carried, and every product that arrived stamped below a
// CompleteUS delivered before it; it feeds the exchanges to a transport
// analyzer.
type resultCounter struct {
	ta         *transport.Analyzer
	calls      int
	results    []*core.Result
	jframes    []int64
	completeUS int64 // largest delivered so far
	infinite   int   // deliveries complete to +inf
	broken     []string
}

func (r *resultCounter) ObserveJFrame(j *unify.JFrame) {
	if r.calls > 0 && j.UnivUS < r.completeUS {
		r.broken = append(r.broken, fmt.Sprintf("jframe at %d after CompleteUS %d", j.UnivUS, r.completeUS))
	}
}

func (r *resultCounter) ObserveExchange(ex *llc.Exchange) {
	if r.calls > 0 && ex.CloseUS < r.completeUS {
		r.broken = append(r.broken, fmt.Sprintf("exchange closed at %d after CompleteUS %d", ex.CloseUS, r.completeUS))
	}
	r.ta.AddExchange(ex)
}

func (r *resultCounter) SetResult(res *core.Result) {
	r.calls++
	r.results = append(r.results, res)
	r.jframes = append(r.jframes, res.UnifyStats.JFrames)
	r.completeUS = max(r.completeUS, res.CompleteUS)
	if res.CompleteUS == math.MaxInt64 {
		r.infinite++
	}
}

// TestSnapshotEveryUS pins the live-result hook: the pipeline re-delivers
// the aggregate result to ResultSink passes as the watermark advances —
// inline and pipelined alike, at the same points of the product stream, so
// both see the same number of snapshots — and still delivers the final
// SetResult, with the same final result. Every snapshot's CompleteUS must be
// what Pass's contract says: nothing delivered after it is stamped below it,
// and only the final result is complete to +inf.
func TestSnapshotEveryUS(t *testing.T) {
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 6
	cfg.Day = 20 * sim.Second
	cfg.Seed = 2
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, everyUS := range []int64{2_000_000, 10_000} { // a coarse cadence, and jigd's
		var ref *core.Result
		var refTA *transport.Analyzer
		var refCalls int
		for _, workers := range []int{1, 2} {
			ccfg := core.DefaultConfig()
			ccfg.Workers = workers
			ccfg.SnapshotEveryUS = everyUS
			rc := &resultCounter{ta: transport.NewAnalyzer()}
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
			if len(rc.broken) > 0 {
				t.Errorf("workers=%d: %d products arrived below a CompleteUS already delivered, first: %s", workers, len(rc.broken), rc.broken[0])
			}
			if res.CompleteUS != math.MaxInt64 || rc.infinite != 1 {
				t.Errorf("workers=%d: final CompleteUS = %d and %d deliveries complete to +inf, want math.MaxInt64 on the final one only", workers, res.CompleteUS, rc.infinite)
			}
			if res.UnifyStats.JFrames == 0 {
				t.Fatalf("workers=%d: final result has no jframes", workers)
			}
			if ref == nil {
				ref, refTA, refCalls = res, rc.ta, rc.calls
				continue
			}
			if rc.calls != refCalls {
				t.Errorf("workers=%d: %d SetResult calls, inline run made %d", workers, rc.calls, refCalls)
			}
			if res.UnifyStats != ref.UnifyStats || res.LLCStats != ref.LLCStats || rc.ta.Stats != refTA.Stats {
				t.Errorf("workers=%d: final result differs from the inline run:\n got  %+v %+v %+v\n want %+v %+v %+v", workers,
					res.UnifyStats, res.LLCStats, rc.ta.Stats, ref.UnifyStats, ref.LLCStats, refTA.Stats)
			}
		}
	}
}
