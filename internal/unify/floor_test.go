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

// requireFloorHolds drains u, asking for the floor after every jframe, and
// fails if any jframe is stamped below a floor reported before it was
// returned. It logs the two distances the floor exists to replace guesses
// at: the largest emission inversion (how far below the frontier a jframe
// was stamped) and the largest frontier − floor (how far behind the newest
// jframe the floor had to stay).
func requireFloorHolds(t *testing.T, label string, u *Unifier) {
	t.Helper()
	floor, frontier := int64(math.MinInt64), int64(math.MinInt64)
	var n, maxInversion, maxBehind int64
	for ; ; n++ {
		j, err := u.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if j.UnivUS < floor {
			t.Fatalf("%s: jframe %d is stamped %d, below the floor %d reported before it", label, n, j.UnivUS, floor)
		}
		if n > 0 {
			maxInversion = max(maxInversion, frontier-j.UnivUS)
		}
		frontier = max(frontier, j.UnivUS)
		j.Release()
		// Floors need not be monotonic (a resync can move a head's mapping
		// down); every one of them binds, so keep the largest.
		floor = max(floor, u.FloorUS())
		if floor != math.MaxInt64 {
			maxBehind = max(maxBehind, frontier-floor)
		}
	}
	if n == 0 {
		t.Fatalf("%s: empty stream", label)
	}
	if got := u.FloorUS(); got != math.MaxInt64 {
		t.Errorf("%s: floor after io.EOF = %d, want math.MaxInt64", label, got)
	}
	t.Logf("%s: %d jframes, largest emission inversion %d µs, largest frontier − floor %d µs", label, n, maxInversion, maxBehind)
}

// TestFloorBoundsEveryLaterJFrame is the property FloorUS promises, and the
// measurement of the emission inversion other constants guess: over the
// captures of TestWindowedAttachMatchesFullScan (the default building, a
// roaming one, three thinned seeds), with skew compensation on and off, and
// over TestWindowedAttachFallback's constructed 1.2 ms re-mapping, no jframe
// is ever stamped below a floor reported earlier.
func TestFloorBoundsEveryLaterJFrame(t *testing.T) {
	for _, skew := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.SkewCompensation = skew
		requireFloorHolds(t, fmt.Sprintf("inverted batch/skew=%v", skew), invertedBatchTestbed().build(t, cfg))
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
				requireFloorHolds(t, fmt.Sprintf("%s/skew=%v", label, skew), New(cfg, sources, boot))
				if err := fault(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
