package unify

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/tracefile"
)

// render prints every field of a frame, instances included.
func render(j *JFrame) string {
	return fmt.Sprintf("t=%d disp=%d rate=%d ch=%d wl=%d v=%v phy=%v wire=%x frame=%+v inst=%+v",
		j.UnivUS, j.DispersionUS, j.Rate, j.Channel, j.WireLen, j.Valid, j.PhyOnly, j.Wire, j.Frame, j.Instances)
}

// requireSameStream drains a windowed unifier and one with the window
// switched off in lockstep, comparing every field and instance of every
// frame.
func requireSameStream(t *testing.T, label string, windowed, full *Unifier) {
	t.Helper()
	full.fullScan = true
	for n := 0; ; n++ {
		a, aerr := windowed.Next()
		b, berr := full.Next()
		if aerr != berr {
			t.Fatalf("%s: after %d jframes the windowed scan returned %v, the full scan %v", label, n, aerr, berr)
		}
		if aerr == io.EOF {
			if n == 0 {
				t.Fatalf("%s: empty stream", label)
			}
			return
		}
		if aerr != nil {
			t.Fatal(aerr)
		}
		same := a.UnivUS == b.UnivUS && a.DispersionUS == b.DispersionUS && a.Rate == b.Rate &&
			a.Channel == b.Channel && a.WireLen == b.WireLen && a.Valid == b.Valid && a.PhyOnly == b.PhyOnly &&
			bytes.Equal(a.Wire, b.Wire) && reflect.DeepEqual(a.Frame, b.Frame) && slices.Equal(a.Instances, b.Instances)
		if !same {
			t.Fatalf("%s: jframe %d diverges:\nwindowed %s\nfull     %s", label, n, render(a), render(b))
		}
		a.Release()
		b.Release()
	}
}

// thin re-encodes a scenario's traces keeping each record with probability
// 0.95, every radio drawing from its own generator — the capture loss the
// benchmark applies to its inputs, which leaves jframes with other instance
// sets and more frames for the corrupt-attach rule to place.
func thin(t *testing.T, traces map[int32]*bytes.Buffer, seed int64) map[int32][]byte {
	t.Helper()
	out := make(map[int32][]byte, len(traces))
	for radio, buf := range traces {
		rng := rand.New(rand.NewSource(seed<<20 ^ int64(radio)))
		var kept bytes.Buffer
		w := tracefile.NewWriter(&kept)
		r := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
		for {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if rng.Float64() < 0.05 {
				continue
			}
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out[radio] = kept.Bytes()
	}
	return out
}

// TestWindowedAttachMatchesFullScan is the differential test for the
// corrupt-attach window: over whole simulated captures — the default
// building, a roaming one, and three thinned captures — the unifier must
// emit exactly the stream (every field, every instance) it emits with the
// window switched off and every corrupt instance scanning every group of
// its batch.
func TestWindowedAttachMatchesFullScan(t *testing.T) {
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
	cases := []struct {
		name      string
		cfg       scenario.Config
		thinSeeds []int64 // none: the capture as simulated
	}{
		{"default", scenario.Default(), nil},
		{"roaming", roaming, nil},
		{"thinned", thinned, []int64{1, 2, 3}},
	}
	for _, tc := range cases {
		out, err := scenario.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sets := map[string]*tracefile.TraceSet{}
		if tc.thinSeeds == nil {
			raw := make(map[int32][]byte, len(out.Traces))
			for r, b := range out.Traces {
				raw[r] = b.Bytes()
			}
			sets[tc.name] = tracefile.NewBufferSet(raw)
		}
		for _, seed := range tc.thinSeeds {
			sets[fmt.Sprintf("%s/seed%d", tc.name, seed)] = tracefile.NewBufferSet(thin(t, out.Traces, seed))
		}
		for label, ts := range sets {
			boot, err := timesync.BootstrapSet(ts, out.ClockGroups, timesync.DefaultWindowUS, 1)
			if err != nil {
				t.Fatal(err)
			}
			open := func() (*Unifier, func() error) {
				sources, fault := TraceSources(ts)
				return New(DefaultConfig(), sources, boot), fault
			}
			u, fault := open()
			full, fullFault := open()
			requireSameStream(t, label, u, full)
			for _, f := range []func() error{fault, fullFault} {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}
			if u.Stats != full.Stats {
				t.Errorf("%s: stats differ: windowed %+v, full %+v", label, u.Stats, full.Stats)
			}
			if u.Stats.CRCErrors == 0 {
				t.Fatalf("%s: no FCS-failed records; the case does not exercise corrupt attachment", label)
			}
			// The window only pays if nearly every batch can use it.
			if 10*u.fullScanBatches > u.Stats.JFrames {
				t.Errorf("%s: %d batches fell back to the full scan for %d jframes", label, u.fullScanBatches, u.Stats.JFrames)
			}
			t.Logf("%s: %d jframes, %d corrupt records, %d full-scan batches", label, u.Stats.JFrames, u.Stats.CRCErrors, u.fullScanBatches)
		}
	}
}

// invertedBatchTestbed builds the capture TestWindowedAttachFallback
// describes: five radios, one of them re-mapped by 1.2 ms after its next
// record was queued.
func invertedBatchTestbed() *testbed {
	tb := newTestbed(7)
	good := []int32{1, 2, 3, 4}
	for _, r := range good {
		tb.addRadio(r, int64(r)*1000, 0)
	}
	const fast int32 = 5
	tb.addRadio(fast, 5000, 200) // gains 200 µs per second, uncorrected
	all := append(append([]int32(nil), good...), fast)
	for ns := int64(0); ns < 1_000_000_000; ns += 50_000_000 {
		tb.tx(ns, all...)
	}
	// Six seconds of silence (past the 5 s a clock may coast and still
	// be trusted, so the wide tolerance applies), then one frame
	// everyone hears: its group spans the accumulated 1.2 ms and
	// resyncs every member.
	tb.tx(7_000_000_000, all...)
	// 20 ms on, a burst the good radios hear every 100–200 µs; the fast
	// radio gets corrupt copies of the first two frames — the first of
	// them queued before the resync.
	corrupt := func(wire []byte) []byte {
		c := append([]byte(nil), wire...)
		c[len(c)-2] ^= 0xff
		return c
	}
	const burst = 7_020_000_000
	tb.txWire(burst, corrupt(tb.tx(burst, good...)), 0, fast)
	tb.txWire(burst+100_000, corrupt(tb.tx(burst+100_000, good...)), 0, fast)
	for ns := int64(burst + 300_000); ns <= burst+1_500_000; ns += 200_000 {
		tb.tx(ns, good...)
	}
	tb.tx(7_100_000_000, all...)
	return tb
}

// TestWindowedAttachFallback constructs the one batch shape the window
// cannot serve. A radio whose clock has run 1.2 ms fast over a long silence
// is snapped back by a resync, after its next record was already queued at
// the old offset; that record therefore lands in the following batch 1.2 ms
// *later* than the one behind it. Both are corrupt copies of frames the
// other radios received intact, in a batch with a valid group every 200 µs.
// Walking the late copy first drags a forward-only window a millisecond
// past the groups the early copy can attach to; the unifier must notice the
// batch is not ascending, scan it in full, and place both copies exactly
// as the unwindowed unifier does.
func TestWindowedAttachFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkewCompensation = false

	u := invertedBatchTestbed().build(t, cfg)
	requireSameStream(t, "inverted batch", u, invertedBatchTestbed().build(t, cfg))
	if u.fullScanBatches != 1 {
		t.Fatalf("%d batches fell back to the full scan, want the one constructed inversion", u.fullScanBatches)
	}
}
