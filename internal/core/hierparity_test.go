// Hierarchical-vs-flat parity: the campus path's determinism contract,
// mirroring TestParallelMatchesSerial one level up. Buildings are radio-
// and conversation-disjoint, so the hierarchical pipeline — per-building
// unify workers serializing sorted intermediate streams, then a global
// k-way merge driving the ordinary pipeline — must reproduce, exactly, the
// reference a test-side merge of per-building flat runs defines: the same
// jframe stream byte for byte (digests), the same canonical exchange
// sequence, and DeepEqual-identical analysis-pass reports, across building
// counts, worker counts, seeds, and buffer- vs directory-backed sources.
//
// (Like the pass-parity suite, this lives in the external test package
// because it drives internal/analysis passes, which import core.)
package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/hmerge"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/unify"
)

// hierDigest hashes a jframe stream exactly like the parallel-parity
// test's digest (external-package copy).
type hierDigest struct{ h hash.Hash }

func newHierDigest() *hierDigest { return &hierDigest{h: sha256.New()} }

func (d *hierDigest) observe(j *unify.JFrame) {
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
	put(j.UnivUS)
	put(int64(j.Rate))
	put(int64(j.Channel))
	put(int64(j.WireLen))
	put(j.DispersionUS)
	flags := int64(0)
	if j.Valid {
		flags |= 1
	}
	if j.PhyOnly {
		flags |= 2
	}
	put(flags)
	put(int64(len(j.Wire)))
	d.h.Write(j.Wire)
	for _, in := range j.Instances {
		put(int64(in.Radio))
		put(in.LocalUS)
		put(in.UnivUS)
		put(int64(in.RSSIdBm))
	}
}

func (d *hierDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// hierExchangeLess is the canonical exchange order (core's exchangeLess,
// replicated for the external package): close stamp, then deterministic
// tiebreaks.
func hierExchangeLess(a, b *llc.Exchange) bool {
	if a.CloseUS != b.CloseUS {
		return a.CloseUS < b.CloseUS
	}
	if a.StartUS != b.StartUS {
		return a.StartUS < b.StartUS
	}
	if a.EndUS != b.EndUS {
		return a.EndUS < b.EndUS
	}
	if c := bytes.Compare(a.Transmitter[:], b.Transmitter[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.Receiver[:], b.Receiver[:]); c != 0 {
		return c < 0
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Delivery != b.Delivery {
		return a.Delivery < b.Delivery
	}
	return len(a.Attempts) < len(b.Attempts)
}

// hierMergeJFrames is the reference global merge: head-min by
// (UnivUS, building index) over per-building sorted jframe slices —
// exactly the Merger's ordering contract, reimplemented trivially.
func hierMergeJFrames(lists [][]*unify.JFrame) []*unify.JFrame {
	cursors := make([]int, len(lists))
	var out []*unify.JFrame
	for {
		best := -1
		for i := range lists {
			if cursors[i] >= len(lists[i]) {
				continue
			}
			if best < 0 || lists[i][cursors[i]].UnivUS < lists[best][cursors[best]].UnivUS {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][cursors[best]])
		cursors[best]++
	}
}

// hierMergeExchanges merges per-building canonical exchange sequences into
// the global canonical order. Buildings are MAC-disjoint, so heads of
// different lists never compare equal and the merge is unambiguous.
func hierMergeExchanges(lists [][]*llc.Exchange) []*llc.Exchange {
	cursors := make([]int, len(lists))
	var out []*llc.Exchange
	for {
		best := -1
		for i := range lists {
			if cursors[i] >= len(lists[i]) {
				continue
			}
			if best < 0 || hierExchangeLess(lists[i][cursors[i]], lists[best][cursors[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][cursors[best]])
		cursors[best]++
	}
}

// requireExchangesEqual compares two exchange sequences on every field the
// analyses consume (the canonical comparator's fields plus the delivery
// annotations), element by element.
func requireExchangesEqual(t *testing.T, label string, got, want []*llc.Exchange) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: exchange count differs: %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		x, y := got[i], want[i]
		if x.CloseUS != y.CloseUS || x.StartUS != y.StartUS || x.EndUS != y.EndUS ||
			x.Transmitter != y.Transmitter || x.Receiver != y.Receiver ||
			x.Seq != y.Seq || x.Broadcast != y.Broadcast ||
			x.Delivery != y.Delivery || x.Inferred != y.Inferred ||
			len(x.Attempts) != len(y.Attempts) {
			t.Fatalf("%s: exchange %d differs:\n  got  %+v\n  want %+v", label, i, x, y)
		}
	}
}

// hierPasses builds a fresh truth-free instance of every registered pass —
// the report set a campus run drives (no ground-truth Output spans
// buildings).
func hierPasses(t *testing.T, apSet map[dot80211.MAC]bool, hourUS int64) []analysis.Pass {
	t.Helper()
	params := analysis.PassParams{
		SlotUS:     hourUS,
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
	}
	passes, err := analysis.NewPasses("all", params)
	if err != nil {
		t.Fatal(err)
	}
	return passes
}

// hierBuilding is one generated building plus everything the parity checks
// reference: its flat serial run (collected products, stream digest) and its
// intermediate stream in both buffer- and file-backed form.
type hierBuilding struct {
	out        *scenario.Output
	flat       *core.Result
	kept       core.Collection     // the flat run's jframes and exchanges
	flatTA     *transport.Analyzer // fed the flat run's exchanges
	flatDigest string
	stream     []byte // buffer-backed hmerge.Unify output
	meta       *hmerge.Meta
	streamPath string // hmerge.UnifyDir output over the spilled trace dir
}

// hierTemplate is the per-building scenario shape shared by the
// hierarchical parity tests.
func hierTemplate() scenario.Config {
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 3, 3, 6
	cfg.Day = 12 * sim.Second
	return cfg
}

// buildHierBuildings generates n buildings for one campus seed and
// prepares, per building: the flat serial reference run and the
// intermediate stream — produced twice (buffer-backed unify worker and
// directory-backed UnifyDir with a different bootstrap pool size), which
// must serialize byte-identically: the separate-process contract. When the
// test ends the collections are released and every pooled jframe must be
// back where it started.
func buildHierBuildings(t *testing.T, seed int64, n int) ([]*hierBuilding, map[dot80211.MAC]bool) {
	t.Helper()
	live := unify.LiveJFrames()
	camp := scenario.CampusConfig{Buildings: n, Seed: seed, Building: hierTemplate()}
	blds := make([]*hierBuilding, n)
	apSet := make(map[dot80211.MAC]bool)
	for k := 0; k < n; k++ {
		out, err := scenario.Run(camp.BuildingConfig(k))
		if err != nil {
			t.Fatalf("building %d: %v", k, err)
		}
		for _, ap := range out.APs {
			apSet[ap.MAC] = true
		}
		bufTS := out.TraceSet()

		ccfg := core.DefaultConfig()
		ccfg.Workers = 1
		b := &hierBuilding{out: out}
		blds[k] = b
		b.flat, err = core.RunFrom(bufTS, out.ClockGroups, ccfg, b.kept.Sink())
		if err != nil {
			t.Fatalf("building %d: flat run: %v", k, err)
		}
		if len(b.kept.Exchanges) == 0 {
			t.Fatalf("building %d: no exchanges; the scenario is too small", k)
		}
		b.flatTA = transport.NewAnalyzer()
		for _, ex := range b.kept.Exchanges {
			b.flatTA.AddExchange(ex)
		}
		d := newHierDigest()
		for _, j := range b.kept.JFrames {
			d.observe(j)
		}

		var sb bytes.Buffer
		meta, err := hmerge.Unify(bufTS, out.ClockGroups, hmerge.UnifyConfig{Workers: 1}, &sb)
		if err != nil {
			t.Fatalf("building %d: unify: %v", k, err)
		}

		dir := t.TempDir()
		for r, buf := range out.Traces {
			if err := os.WriteFile(tracefile.TracePath(dir, r), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		spath := filepath.Join(t.TempDir(), "stream.jfs")
		dmeta, err := hmerge.UnifyDir(dir, spath, out.ClockGroups, hmerge.UnifyConfig{Workers: 4})
		if err != nil {
			t.Fatalf("building %d: unify dir: %v", k, err)
		}
		db, err := os.ReadFile(spath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(db, sb.Bytes()) {
			t.Fatalf("building %d: directory-backed stream bytes differ from buffer-backed (%d vs %d bytes)",
				k, len(db), len(sb.Bytes()))
		}
		dm := *dmeta
		dm.Building = "" // the only field allowed to differ (dir base name)
		if !reflect.DeepEqual(&dm, meta) {
			t.Fatalf("building %d: sidecars differ across sources:\n  dir %+v\n  buf %+v", k, dmeta, meta)
		}

		b.flatDigest = d.sum()
		b.stream, b.meta, b.streamPath = sb.Bytes(), meta, spath
	}
	t.Cleanup(func() {
		for _, b := range blds {
			b.kept.Release()
		}
		if n := unify.LiveJFrames() - live; n != 0 {
			t.Errorf("%d pooled jframes still referenced after releasing every collection", n)
		}
	})
	return blds, apSet
}

// TestHierarchicalMatchesFlat is the campus determinism contract:
// RunHierarchical over {1, 2, 4} buildings × Workers {1, 2, 8} (slab sizes
// 1, 2, 64 spread over the pipelined ones) × 3 seeds, over buffer- and
// file-backed intermediate streams, must reproduce the
// test-side reference merge of the per-building flat runs — digest,
// exchange sequence, aggregated stats and every pass report.
func TestHierarchicalMatchesFlat(t *testing.T) {
	hourUS := hierTemplate().HourDur().US64()
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const maxB = 4
			blds, apSet := buildHierBuildings(t, seed, maxB)

			// hierRun is one hierarchical run: its result, the jframe stream's
			// digest, the exchanges it delivered, a transport analyzer fed
			// them and every pass report.
			type hierRun struct {
				res     *core.Result
				digest  string
				kept    core.Collection
				ta      *transport.Analyzer
				reports map[string]analysis.Report
			}
			runHier := func(streams []*hmerge.Stream, workers, slab int) *hierRun {
				defer core.SetSlabSize(slab)()
				ccfg := core.DefaultConfig()
				ccfg.Workers = workers
				passes := hierPasses(t, apSet, hourUS)
				ccfg.Passes = analysis.CorePasses(passes)
				d := newHierDigest()
				run := &hierRun{ta: transport.NewAnalyzer()}
				sink := run.kept.Sink()
				sink.OnJFrame = d.observe // digest the jframes, keep the exchanges
				keep := sink.OnExchange
				sink.OnExchange = func(ex *llc.Exchange) {
					keep(ex)
					run.ta.AddExchange(ex)
				}
				var err error
				run.res, err = core.RunHierarchical(streams, ccfg, sink)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if n := core.SlabBalance(); n != 0 {
					t.Fatalf("workers=%d/slab=%d: %d slabs outstanding after the run", workers, slab, n)
				}
				run.digest, run.reports = d.sum(), finalizeAll(passes)
				return run
			}

			for _, B := range []int{1, 2, 4} {
				// The flat reference: merge the per-building flat runs in
				// the test, by the Merger's own ordering contract. (A single
				// flat run over the union of traces is NOT an exact
				// reference — its global bootstrap walks a different
				// co-reception spanning tree and lands on offsets a few µs
				// apart. The hierarchical contract is per-building
				// bootstraps, aggregated.)
				jlists := make([][]*unify.JFrame, B)
				xlists := make([][]*llc.Exchange, B)
				var refStats unify.Stats
				var refLLC llc.Stats
				refOffsets := make(map[int32]int64)
				for k := 0; k < B; k++ {
					jlists[k] = blds[k].kept.JFrames
					xlists[k] = blds[k].kept.Exchanges
					refStats.Add(blds[k].meta.Unify)
					refLLC.Add(blds[k].flat.LLCStats)
					for r, off := range blds[k].meta.Bootstrap.OffsetUS {
						refOffsets[r] = off
					}
				}
				mergedJF := hierMergeJFrames(jlists)
				mergedEx := hierMergeExchanges(xlists)
				rd := newHierDigest()
				for _, j := range mergedJF {
					rd.observe(j)
				}
				refDigest := rd.sum()

				// Reference pass reports: drive the merged slices through
				// fresh passes, and a transport analyzer through the same
				// canonical exchange sequence.
				refTA := transport.NewAnalyzer()
				for _, ex := range mergedEx {
					refTA.AddExchange(ex)
				}
				fresh := hierPasses(t, apSet, hourUS)
				core.DriveSlices(analysis.CorePasses(fresh), mergedJF, mergedEx)
				refReports := finalizeAll(fresh)

				check := func(label string, run *hierRun) {
					t.Helper()
					res, digest, reports := run.res, run.digest, run.reports
					if digest != refDigest {
						t.Errorf("%s: jframe stream digest differs from the flat reference merge", label)
					}
					requireExchangesEqual(t, label, run.kept.Exchanges, mergedEx)
					run.kept.Release()
					if res.UnifyStats != refStats {
						t.Errorf("%s: unify stats differ from the per-building aggregate:\n  got  %+v\n  want %+v",
							label, res.UnifyStats, refStats)
					}
					if !reflect.DeepEqual(res.Bootstrap.OffsetUS, refOffsets) {
						t.Errorf("%s: bootstrap offsets differ from the flat run", label)
					}
					if res.LLCStats != refLLC {
						t.Errorf("%s: llc stats differ from the per-building aggregate:\n  got  %+v\n  want %+v",
							label, res.LLCStats, refLLC)
					}
					if run.ta.Stats != refTA.Stats {
						t.Errorf("%s: transport stats differ from the flat reference:\n  got  %+v\n  want %+v",
							label, run.ta.Stats, refTA.Stats)
					}
					for name, want := range refReports {
						got, ok := reports[name]
						if !ok {
							t.Errorf("%s: pass %q missing from hierarchical run", label, name)
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: pass %q differs from flat reference:\n  got  %+v\n  want %+v",
								label, name, got, want)
						}
					}
				}

				paths := make([]string, B)
				for _, v := range []struct{ w, slab int }{{1, 64}, {2, 1}, {2, 64}, {8, 2}} {
					w := v.w
					streams := make([]*hmerge.Stream, B)
					for k := 0; k < B; k++ {
						streams[k] = hmerge.NewStream(blds[k].meta, bytes.NewReader(blds[k].stream))
						paths[k] = blds[k].streamPath
					}
					run := runHier(streams, w, v.slab)
					check(fmt.Sprintf("B=%d buf/workers=%d/slab=%d", B, w, v.slab), run)
					res, digest := run.res, run.digest

					// File-backed streams through the sidecar/open path.
					fstreams, err := hmerge.OpenStreams(paths)
					if err != nil {
						t.Fatal(err)
					}
					frun := runHier(fstreams, w, v.slab)
					for _, s := range fstreams {
						if err := s.Close(); err != nil {
							t.Fatal(err)
						}
					}
					check(fmt.Sprintf("B=%d file/workers=%d/slab=%d", B, w, v.slab), frun)

					// A single building must also match its flat run exactly
					// (the degenerate hierarchy is the flat pipeline).
					if B == 1 {
						if digest != blds[0].flatDigest {
							t.Errorf("workers=%d: single-building digest differs from the flat run", w)
						}
						if res.LLCStats != blds[0].flat.LLCStats {
							t.Errorf("workers=%d: single-building llc stats differ:\n  got  %+v\n  want %+v",
								w, res.LLCStats, blds[0].flat.LLCStats)
						}
						if run.ta.Stats != blds[0].flatTA.Stats {
							t.Errorf("workers=%d: single-building transport stats differ:\n  got  %+v\n  want %+v",
								w, run.ta.Stats, blds[0].flatTA.Stats)
						}
					}
				}
			}
		})
	}
}

// TestHierarchicalMatchesFlatOnDefault runs both paths over scenario.Default(),
// a capture on which a resync maps records below jframes already built: the
// flat run's jframe stream must be, byte for byte, the hierarchical run's over
// hmerge.Unify's stream of the same traces, and so must everything built on
// it. Had the unifier handed on jframes in building order, the flat run would
// see the inversions the sorted .jfs stream does not.
func TestHierarchicalMatchesFlatOnDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a whole building")
	}
	out, err := scenario.Run(scenario.Default())
	if err != nil {
		t.Fatal(err)
	}
	ts := out.TraceSet()
	ccfg := core.DefaultConfig()
	ccfg.Workers = 1
	fd := newHierDigest()
	flatTA := transport.NewAnalyzer()
	flat, err := core.RunFrom(ts, out.ClockGroups, ccfg, &core.Sink{OnJFrame: fd.observe, OnExchange: flatTA.AddExchange})
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	meta, err := hmerge.Unify(ts, out.ClockGroups, hmerge.UnifyConfig{Workers: 1}, &stream)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ccfg.Workers = workers
		hd := newHierDigest()
		hierTA := transport.NewAnalyzer()
		hier, err := core.RunHierarchical([]*hmerge.Stream{hmerge.NewStream(meta, bytes.NewReader(stream.Bytes()))}, ccfg, &core.Sink{OnJFrame: hd.observe, OnExchange: hierTA.AddExchange})
		if err != nil {
			t.Fatal(err)
		}
		if hd.sum() != fd.sum() {
			t.Errorf("workers=%d: hierarchical jframe digest differs from the flat run's", workers)
		}
		if hier.UnifyStats != flat.UnifyStats || hier.LLCStats != flat.LLCStats || hierTA.Stats != flatTA.Stats {
			t.Errorf("workers=%d: stats differ:\n  hier unify %+v llc %+v transport %+v\n  flat unify %+v llc %+v transport %+v",
				workers, hier.UnifyStats, hier.LLCStats, hierTA.Stats, flat.UnifyStats, flat.LLCStats, flatTA.Stats)
		}
	}
}
