package unify

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dot80211"
	"repro/internal/timesync"
	"repro/internal/tracefile"
)

// TestUnifyBatchTieOrder builds one batch in which phy errors, valid groups
// and corrupt-only groups all land on the same UnivUS, eight of each, and
// checks that they leave in build order: the phy errors, then the valid
// groups, then the corrupt-only ones, each in the order the batch popped its
// instances. Eight more phy errors 50 µs later are built first but must
// leave last, so the batch's sort has work to do beyond the 12 jframes an
// insertion sort handles alone; an unstable sort reorders the ties.
func TestUnifyBatchTieOrder(t *testing.T) {
	const perKind = 8
	const tieUS, lateUS = 1_000, 1_050
	const (
		phyErr = iota
		valid
		corrupt
		latePhyErr
		kinds
	)
	sources := map[int32]Source{}
	boot := &timesync.Result{OffsetUS: map[int32]int64{}}
	for r := int32(0); r < kinds*perKind; r++ {
		k := int(r) / perKind
		rec := tracefile.Record{LocalUS: tieUS, RadioID: r, Channel: 1, Rate: uint16(dot80211.Rate11Mbps)}
		switch k {
		case phyErr, latePhyErr:
			rec.Flags = tracefile.FlagPhyErr
			if k == latePhyErr {
				rec.LocalUS = lateUS
			}
		default:
			// A distinct transmitter per radio: no valid frame matches
			// another, and no corrupt one attaches anywhere.
			f := dot80211.NewData(dot80211.MAC{2, 0, 0, 0, 0, 1}, dot80211.MAC{2, 0, 0, 0, byte(k), byte(r)},
				dot80211.MAC{2, 0, 0, 0, 0, 7}, uint16(r), []byte{byte(r), 0x5a})
			rec.Frame = f.Encode()
			if k == valid {
				rec.Flags = tracefile.FlagFCSOK
			}
		}
		sources[r] = NewSliceSource([]tracefile.Record{rec})
		boot.OffsetUS[r] = 0
	}
	u := New(DefaultConfig(), sources, boot)

	// Every radio has one record, so the batch pops the queue as it stands.
	h := append(instanceHeap(nil), u.heap...)
	var popped []int32
	for len(h) > 0 {
		popped = append(popped, h.popMin().radio)
	}
	var want []int32
	for k := 0; k < kinds; k++ {
		for _, r := range popped {
			if int(r)/perKind == k {
				want = append(want, r)
			}
		}
	}

	frames, err := u.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var got []int32
	for _, j := range frames {
		if len(j.Instances) != 1 {
			t.Fatalf("jframe at %d µs with %d instances; want singletons", j.UnivUS, len(j.Instances))
		}
		got = append(got, j.Instances[0].Radio)
		j.Release()
	}
	if !slices.Equal(got, want) {
		t.Errorf("radios left in order %v, want build order %v", got, want)
	}
}

// TestSortInstancesMatchesSortSlice checks that sortInstances permutes
// groups past the insertion-sort cutoff exactly as sort.Slice does, ties
// included: the tie order of a large group's instances reaches the output
// stream.
func TestSortInstancesMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 13 + rng.Intn(288)
		distinct := 1 + rng.Intn(8) // a handful of timestamps: heavy ties
		in := make([]Instance, n)
		for i, r := range rng.Perm(n) {
			in[i] = Instance{Radio: int32(r), UnivUS: 1_000 + int64(rng.Intn(distinct))}
		}
		want := slices.Clone(in)
		sort.Slice(want, func(a, b int) bool { return want[a].UnivUS < want[b].UnivUS })
		sortInstances(in)
		if !slices.Equal(in, want) {
			t.Fatalf("trial %d (%d instances, %d timestamps): sortInstances and sort.Slice disagree", trial, n, distinct)
		}
	}
}
