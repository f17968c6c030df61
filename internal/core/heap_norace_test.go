//go:build !race

// The race detector's sync.Pool drops items at random and its shadow memory
// moves every heap reading, so this ceiling is not built under -race.

package core

import (
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// TestStreamingResidentHeap is the streaming merge's heap ceiling. Over a
// directory-backed paper-scale capture (156 radios, a 4 s day) at Workers: 1,
// what every open radio holds — its decoded block above all — outweighs the
// rest of the pipeline, so a per-radio buffer that grows back shows up here.
//
// After one warm-up run, the heap is sampled every 1,000 jframes of a second
// run, each sample just after a collection, so it reads the live objects and
// not where the collector happened to be: 8.4 MB with 16 KB blocks, 17.3 MB
// with 64 KB ones (x86-64, go1.24), run after run. The ceiling leaves 3.6 MB
// of headroom above the first and sits 5.3 MB below the second.
func TestStreamingResidentHeap(t *testing.T) {
	const ceilingMB = 12
	cfg := scenario.PaperScale()
	cfg.Day = 4 * sim.Second
	cfg.SpillDir = filepath.Join(t.TempDir(), "traces")
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := tracefile.OpenDir(cfg.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	run := DefaultConfig()
	run.Workers = 1
	if _, err := RunFrom(ts, out.ClockGroups, run, nil); err != nil { // warms the pools
		t.Fatal(err)
	}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var n int
	var peak uint64
	sink := &Sink{OnJFrame: func(*unify.JFrame) {
		if n++; n%1000 == 0 {
			runtime.GC()
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
		}
	}}
	if _, err := RunFrom(ts, out.ClockGroups, run, sink); err != nil {
		t.Fatal(err)
	}
	if n < 10_000 {
		t.Fatalf("%d jframes; want a run long enough to sample", n)
	}
	mb := float64(peak) / (1 << 20)
	t.Logf("peak live heap %.1f MB over %d jframes from %d radios", mb, n, ts.Len())
	if mb > ceilingMB {
		t.Errorf("streaming merge peaked at %.1f MB of live heap objects, ceiling %d MB", mb, ceilingMB)
	}
}
