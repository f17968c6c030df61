package unify

import (
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/tracefile"
)

// requireTimeOrdered drains u and fails if Next ever returns a jframe
// stamped below one it returned earlier. It logs the largest hold: how many
// built jframes waited in pending for the floor at once.
func requireTimeOrdered(t *testing.T, label string, u *Unifier) {
	t.Helper()
	last := int64(math.MinInt64)
	var n, maxHold int
	for ; ; n++ {
		maxHold = max(maxHold, len(u.pending)-u.pendHead)
		j, err := u.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if j.UnivUS < last {
			t.Fatalf("%s: jframe %d is stamped %d, below the %d returned before it", label, n, j.UnivUS, last)
		}
		last = j.UnivUS
		j.Release()
	}
	if n == 0 {
		t.Fatalf("%s: empty stream", label)
	}
	t.Logf("%s: %d jframes in time order, largest hold %d", label, n, maxHold)
}

// TestFloorBoundsEveryLaterJFrame: the floor Next releases on is a lower
// bound on every jframe still to be built, so the stream comes out in time
// order although building can invert it. Checked over the captures of
// TestWindowedAttachMatchesFullScan (the default building, a roaming one,
// three thinned seeds), with skew compensation on and off, and over
// TestWindowedAttachFallback's constructed 1.2 ms re-mapping.
func TestFloorBoundsEveryLaterJFrame(t *testing.T) {
	for _, skew := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.SkewCompensation = skew
		requireTimeOrdered(t, fmt.Sprintf("inverted batch/skew=%v", skew), invertedBatchTestbed().build(t, cfg))
	}
	if testing.Short() {
		t.Skip("simulates whole buildings")
	}
	roaming := scenario.Roaming()
	roaming.Pods, roaming.APs, roaming.Clients = 5, 9, 8
	roaming.MobileClients, roaming.MoveSpeedMPS = 3, 6
	roaming.Day = 30 * sim.Second
	thinned := scenario.Default()
	thinned.Pods, thinned.APs, thinned.Clients = 6, 6, 10
	thinned.Day = 30 * sim.Second
	for _, tc := range []struct {
		name      string
		cfg       scenario.Config
		thinSeeds []int64 // 0: the capture as simulated
	}{
		{"default", scenario.Default(), []int64{0}},
		{"roaming", roaming, []int64{0}},
		{"thinned", thinned, []int64{1, 2, 3}},
	} {
		out, err := scenario.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range tc.thinSeeds {
			label, ts := tc.name, out.TraceSet()
			if seed != 0 {
				label, ts = fmt.Sprintf("%s/seed%d", tc.name, seed), tracefile.NewBufferSet(thin(t, out.Traces, seed))
			}
			boot, err := timesync.BootstrapSet(ts, out.ClockGroups, timesync.DefaultWindowUS, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, skew := range []bool{true, false} {
				cfg := DefaultConfig()
				cfg.SkewCompensation = skew
				sources, fault := TraceSources(ts)
				requireTimeOrdered(t, fmt.Sprintf("%s/skew=%v", label, skew), New(cfg, sources, boot))
				if err := fault(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
