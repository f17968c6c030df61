package analysis

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// overlapCheck replays one pass's overlap queries against two indexes fed
// the same intervals: one retired exactly as the pass retires its own, and
// one that keeps the whole trace. It defers exchanges with the pass's own
// exchangeDeferral and retires at the same points (before an exchange's
// queries), so its pruned index holds what the pass's does at every query.
type overlapCheck struct {
	keep          func(*unify.JFrame) bool // the jframes the pass indexes
	pruned, whole overlapIndex
	pending       exchangeDeferral

	queries, mismatches int
	// reach is the largest CloseUS minus earliest data-attempt start.
	reach int64
}

func newOverlapCheck(keep func(*unify.JFrame) bool) *overlapCheck {
	return &overlapCheck{keep: keep}
}

func (c *overlapCheck) ObserveJFrame(j *unify.JFrame) {
	c.pending.noteJFrame(j.UnivUS)
	if c.keep(j) {
		s, e := frameInterval(j)
		c.pruned.add(j.Channel, s, e)
		c.whole.add(j.Channel, s, e)
	}
	c.pending.flush(c.process)
}

func (c *overlapCheck) ObserveExchange(ex *llc.Exchange) {
	c.pending.push(ex)
	c.pending.flush(c.process)
}

func (c *overlapCheck) process(ex *llc.Exchange) {
	c.pruned.retire(ex.CloseUS)
	for _, at := range ex.Attempts {
		if at.Data == nil {
			continue
		}
		c.reach = max(c.reach, ex.CloseUS-at.Data.UnivUS)
		if !at.Data.Frame.IsUnicastData() {
			continue
		}
		ch, s, e := at.Data.Channel, at.Data.UnivUS, at.Data.EndUS()
		c.queries++
		if c.pruned.overlapping(ch, s, e) != c.whole.overlapping(ch, s, e) {
			c.mismatches++
		}
	}
}

// indexGauge samples a pass's overlap index after every callback the
// pipeline makes to it: the high-water of live intervals and of the
// channels' backing capacity, in intervals.
type indexGauge struct {
	idx            *overlapIndex
	hiLive, hiCapa int
}

func (g *indexGauge) sample() {
	live, capa := 0, 0
	for _, c := range g.idx.byCh {
		live += len(c.ivs) - c.lo
		capa += cap(c.ivs)
	}
	g.hiLive, g.hiCapa = max(g.hiLive, live), max(g.hiCapa, capa)
}

func (g *indexGauge) ObserveJFrame(*unify.JFrame)   { g.sample() }
func (g *indexGauge) ObserveExchange(*llc.Exchange) { g.sample() }

// unpruned makes a pass's index keep the whole trace: a lookback longer
// than any capture puts every retire cutoff before its first interval.
func unpruned(x *overlapIndex) { x.longest = math.MaxInt64 / 4 }

// overlapRun is one capture run through the interference and diagnose
// passes, their unpruned twins, a query check per pass and a gauge per
// pass's index.
type overlapRun struct {
	intf, intfWhole, diag, diagWhole Report
	checks                           [2]*overlapCheck // interference, diagnose
	gauges                           [2]*indexGauge
	lookback                         [2]int64
}

// overlapRuns caches the runs by capture name: the two tests share
// Default()'s.
var overlapRuns = map[string]*overlapRun{}

// runOverlap runs cfg's capture, with every unicast DATA frame whose
// sequence number is not a multiple of missData dropped from every radio's
// trace when missData > 1.
func runOverlap(t *testing.T, name string, cfg scenario.Config, missData uint16) *overlapRun {
	t.Helper()
	if r := overlapRuns[name]; r != nil {
		return r
	}
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := out.TraceSet()
	if missData > 1 {
		ts = dropData(t, out.Traces, missData)
	}
	intf, intfWhole := NewInterferencePass(1, nil), NewInterferencePass(1, nil)
	diag, diagWhole := NewDiagnosisPass(), NewDiagnosisPass()
	unpruned(&intfWhole.idx)
	unpruned(&diagWhole.idx)
	r := &overlapRun{
		checks: [2]*overlapCheck{
			newOverlapCheck(func(j *unify.JFrame) bool { return !j.PhyOnly }),
			newOverlapCheck(func(j *unify.JFrame) bool { return j.Valid }),
		},
		gauges: [2]*indexGauge{{idx: &intf.idx}, {idx: &diag.idx}},
	}
	ccfg := core.DefaultConfig()
	ccfg.Workers = 1
	ccfg.Passes = []core.Pass{intf, r.gauges[0], diag, r.gauges[1], intfWhole, diagWhole, r.checks[0], r.checks[1]}
	if _, err := core.RunFrom(ts, out.ClockGroups, ccfg, nil); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.checks {
		c.pending.drain(c.process)
		r.lookback[i] = max(overlapMaxAgeUS, c.pruned.longest)
		c.pruned, c.whole = overlapIndex{}, overlapIndex{} // drop the whole trace's intervals
	}
	r.intf, r.intfWhole = intf.Finalize(), intfWhole.Finalize()
	r.diag, r.diagWhole = diag.Finalize(), diagWhole.Finalize()
	overlapRuns[name] = r
	return r
}

// dropData re-encodes traces without the unicast DATA frames whose sequence
// number is not a multiple of every: the monitors hear the ACKs to a
// station but only one in every of its DATA frames, so its exchanges are
// kept open by orphan ACKs.
func dropData(t *testing.T, traces map[int32]*bytes.Buffer, every uint16) *tracefile.TraceSet {
	t.Helper()
	kept := make(map[int32][]byte, len(traces))
	for radio, buf := range traces {
		var b bytes.Buffer
		w := tracefile.NewWriter(&b)
		rd := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if f, _, err := dot80211.DecodeCapture(rec.Frame); err == nil &&
				f.IsData() && !f.Addr1.IsMulticast() && f.Seq%every != 0 {
				continue
			}
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		kept[radio] = b.Bytes()
	}
	return tracefile.NewBufferSet(kept)
}

// TestOverlapIndexMatchesWholeTrace holds the retired overlap index to a
// whole-trace one: every overlap query the interference and diagnose
// passes make gets the same answer from an index that was never pruned,
// and so both passes' reports equal those of twins that never prune. The
// captures include one whose monitors miss most DATA frames but hear their
// ACKs. Every exchange must close within 2·llc.ExchangeTimeoutUS of each of
// its data attempts' starts, the reach the retire cutoff rests on; the test
// logs each capture's largest reach plus the lookback against the cutoff's
// distance behind CloseUS.
func TestOverlapIndexMatchesWholeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates whole buildings")
	}
	dense := scenario.Campus().BuildingConfig(0)
	dense.Day = 10 * sim.Second
	sparse := scenario.Default()
	sparse.Day = 30 * sim.Second
	for _, tc := range []struct {
		name     string
		cfg      scenario.Config
		missData uint16
	}{
		{"default", scenario.Default(), 1},
		{"roaming", scenario.Roaming(), 1},
		{"campus building", dense, 1},
		{"sparse coverage", sparse, 64},
	} {
		r := runOverlap(t, tc.name, tc.cfg, tc.missData)
		for i, pass := range []string{"interference", "diagnose"} {
			c := r.checks[i]
			if c.queries == 0 {
				t.Fatalf("%s/%s: no overlap query made", tc.name, pass)
			}
			if c.reach > 2*llc.ExchangeTimeoutUS {
				t.Errorf("%s/%s: an exchange closes %d µs after one of its data attempts starts, bound %d µs",
					tc.name, pass, c.reach, 2*llc.ExchangeTimeoutUS)
			}
			if c.mismatches != 0 {
				t.Errorf("%s/%s: %d of %d overlap queries answered differently by the retired index",
					tc.name, pass, c.mismatches, c.queries)
			}
			t.Logf("%s/%s: %d queries; largest reach %d µs + lookback %d µs = %d µs, cutoff %d µs behind CloseUS",
				tc.name, pass, c.queries, c.reach, r.lookback[i], c.reach+r.lookback[i],
				2*llc.ExchangeTimeoutUS+r.lookback[i])
		}
		if !reflect.DeepEqual(r.intf, r.intfWhole) {
			t.Errorf("%s: interference report differs from an unpruned pass's", tc.name)
		}
		if !reflect.DeepEqual(r.diag, r.diagWhole) {
			t.Errorf("%s: diagnose report differs from an unpruned pass's", tc.name)
		}
	}
}

// TestOverlapIndexBounded pins, on Default()'s capture, the high-water of
// live intervals and of backing capacity in each pass's overlap index, as
// ceilings. The index holds about a second of intervals behind the
// exchange-close trail; a ten-second horizon holds several times these.
func TestOverlapIndexBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a whole building")
	}
	r := runOverlap(t, "default", scenario.Default(), 1)
	for i, ceil := range []struct {
		pass       string
		live, capa int
	}{
		{"interference", 5432, 12288},
		{"diagnose", 2182, 5632},
	} {
		g := r.gauges[i]
		t.Logf("%s: high-water %d live intervals, %d capacity", ceil.pass, g.hiLive, g.hiCapa)
		if g.hiLive > ceil.live || g.hiCapa > ceil.capa {
			t.Errorf("%s index peaked at %d live intervals and %d capacity, ceilings %d and %d",
				ceil.pass, g.hiLive, g.hiCapa, ceil.live, ceil.capa)
		}
	}
}
