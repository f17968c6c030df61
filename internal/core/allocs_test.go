package core

import (
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// TestStreamingAllocsPerJFrame is the pooled frame lifecycle's regression
// ceiling: the streaming merge (directory-backed sources, stages inline)
// must stay at a handful of heap allocations per unified jframe. The
// ceiling sits well above what the run reads (about 1.6 on a Default()
// capture) and far below what losing a pool would cost.
func TestStreamingAllocsPerJFrame(t *testing.T) {
	const ceiling = 6.0
	out, err := scenario.Run(scenario.Default())
	if err != nil {
		t.Fatal(err)
	}
	ts := writeTraceDir(t, out)
	cfg := DefaultConfig()
	cfg.Workers = 1
	run := func() *Result {
		res, err := RunFrom(ts, out.ClockGroups, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // warm the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)
	if res.UnifyStats.JFrames == 0 {
		t.Fatal("no jframes")
	}
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(res.UnifyStats.JFrames)
	t.Logf("%.2f allocs/jframe over %d jframes", perFrame, res.UnifyStats.JFrames)
	if perFrame > ceiling {
		t.Errorf("streaming merge made %.2f heap allocations per jframe, ceiling %.1f", perFrame, ceiling)
	}
}
