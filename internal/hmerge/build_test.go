package hmerge

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/unify"
)

// TestUnifyMatchesFullSort is the oracle for Unify's reorder heap: the
// unifier drained whole, stable-sorted by UnivUS (so ties keep emission
// order) and written in one go must give exactly the bytes Unify streams
// out while releasing on the unifier's floor.
func TestUnifyMatchesFullSort(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates whole buildings")
	}
	roaming := scenario.Roaming()
	roaming.Pods, roaming.APs, roaming.Clients = 5, 9, 8
	roaming.MobileClients, roaming.MoveSpeedMPS = 3, 6
	roaming.Day = 30 * sim.Second
	for _, tc := range []struct {
		name string
		cfg  scenario.Config
	}{
		{"default", scenario.Default()},
		{"roaming", roaming},
	} {
		out, err := scenario.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := out.TraceSet()

		var got bytes.Buffer
		if _, err := Unify(ts, out.ClockGroups, UnifyConfig{Workers: 1}, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		boot, err := timesync.BootstrapSet(ts, out.ClockGroups, timesync.DefaultWindowUS, 1)
		if err != nil {
			t.Fatal(err)
		}
		sources, fault := unify.TraceSources(ts)
		frames, err := unify.New(unify.DefaultConfig(), sources, boot).Drain()
		if err != nil {
			t.Fatal(err)
		}
		if err := fault(); err != nil {
			t.Fatal(err)
		}
		inverted, frontier := 0, frames[0].UnivUS
		for _, j := range frames {
			if j.UnivUS < frontier {
				inverted++
			}
			frontier = max(frontier, j.UnivUS)
		}
		sort.SliceStable(frames, func(a, b int) bool { return frames[a].UnivUS < frames[b].UnivUS })
		want, _ := encodeStream(t, frames)
		for _, j := range frames {
			j.Release()
		}

		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: Unify wrote %d bytes, the full sort of its %d jframes %d, and they differ",
				tc.name, got.Len(), len(frames), len(want))
		}
		t.Logf("%s: %d jframes, %d emitted below the frontier, %d stream bytes", tc.name, len(frames), inverted, len(want))
	}
}
