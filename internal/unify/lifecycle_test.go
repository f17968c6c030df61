package unify

import (
	"fmt"
	"io"
	"testing"
	"unsafe"

	"repro/internal/timesync"
	"repro/internal/tracefile"
)

// snapshotStream drains a unifier, rendering each emitted frame to a
// deterministic string and releasing it immediately — so the test
// exercises the pooled lifecycle (released frames are recycled into
// later emissions) while retaining nothing but the rendering.
func snapshotStream(t *testing.T, u *Unifier) []string {
	t.Helper()
	var out []string
	for {
		j, err := u.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("t=%d disp=%d rate=%d ch=%d wl=%d v=%v phy=%v wire=%x frame=%+v inst=%+v",
			j.UnivUS, j.DispersionUS, j.Rate, j.Channel, j.WireLen, j.Valid, j.PhyOnly,
			j.Wire, j.Frame, j.Instances))
		j.Release()
	}
}

// coalesceBed generates a dense testbed: clusters of distinct frames
// transmitted near-simultaneously, each heard by many radios, plus
// corrupt copies and phy errors, so every arrival batch exercises content
// grouping, corrupt attachment and resync together.
func coalesceBed(seed int64, radios int, clusters int) *testbed {
	tb := newTestbed(seed)
	ids := make([]int32, radios)
	for i := range ids {
		ids[i] = int32(i + 1)
		tb.addRadio(ids[i], int64(i*1500), float64(i-radios/2)*2.5)
	}
	// Bootstrap window: broadcast frames every 50 ms of the first second,
	// heard everywhere.
	for ns := int64(0); ns < 1_000_000_000; ns += 50_000_000 {
		tb.tx(ns, ids...)
	}
	ns := int64(1_200_000_000)
	for c := 0; c < clusters; c++ {
		// Three distinct frames inside one arrival neighborhood, with
		// staggered audiences.
		w1 := tb.tx(ns, ids...)
		tb.tx(ns+40_000, ids[:radios*2/3]...)
		tb.tx(ns+80_000, ids[radios/3:]...)
		// A corrupt copy of the first frame at one radio, and a phy error
		// at another.
		corrupt := append([]byte(nil), w1...)
		corrupt[len(corrupt)-5] ^= 0xff
		tb.txWire(ns+2_000, corrupt, 0, ids[0])
		tb.txWire(ns+90_000, nil, tracefile.FlagPhyErr, ids[1])
		ns += 7_000_000 * (1 + int64(c%3))
	}
	return tb
}

// allocCeilingPerFrame is the pinned regression ceiling for steady-state
// unification: amortized heap allocations per emitted jframe, measured
// over a full run (bootstrap excluded, unifier construction included).
// The pooled lifecycle holds the hot path near 1 alloc/frame; the
// ceiling leaves headroom for noise, not for regressions — the pre-pool
// code measured well above 4.
const allocCeilingPerFrame = 3.0

// TestUnifyAllocsPerFrame guards the pooled frame lifecycle: releasing
// every frame must hold steady-state allocation near zero per frame.
func TestUnifyAllocsPerFrame(t *testing.T) {
	tb := coalesceBed(3, 10, 150)
	cfg := DefaultConfig()

	// Bootstrap once outside the measurement: its window copies and graph
	// solve are per-run setup, not part of the streaming hot path.
	var window []tracefile.Record
	for _, recs := range tb.recs {
		for _, rec := range recs {
			if rec.LocalUS < 1_000_000 {
				window = append(window, rec)
			}
		}
	}
	boot, err := timesync.Bootstrap(window, nil)
	if err != nil {
		t.Fatal(err)
	}

	frames := 0
	run := func() {
		sources := map[int32]Source{}
		for r, recs := range tb.recs {
			sources[r] = NewSliceSource(recs)
		}
		u := New(cfg, sources, boot)
		for {
			j, err := u.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			frames++
			j.Release()
		}
	}
	run() // count frames and warm the pools
	if frames == 0 {
		t.Fatal("no frames emitted")
	}
	n := frames
	avg := testing.AllocsPerRun(3, run)
	perFrame := avg / float64(n)
	t.Logf("%.2f allocs/frame over %d frames", perFrame, n)
	if perFrame > allocCeilingPerFrame {
		t.Fatalf("%.2f allocs per frame exceeds the pinned ceiling %.1f", perFrame, allocCeilingPerFrame)
	}
}

// TestInstanceSize pins Instance's layout: every jframe carries a slice of
// them, and a field placed before the int64s brings back 8 bytes of
// padding.
func TestInstanceSize(t *testing.T) {
	if n := unsafe.Sizeof(Instance{}); n != 24 {
		t.Errorf("Instance is %d bytes, want 24", n)
	}
}
