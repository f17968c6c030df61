// Package analysis implements the paper's evaluation: the §6 coverage
// experiments (oracle comparison, wired-trace comparison, pod-count
// sensitivity) and the §7 analyses (trace summary, activity time series,
// co-channel interference estimation, 802.11g protection policy, TCP loss
// attribution), each producing the rows/series of the corresponding table
// or figure.
//
// # Streaming architecture
//
// Every analysis is an incremental observer (a Pass) over the pipeline's
// two product streams —
// unified jframes and reconstructed frame exchanges — rather than a
// function over fully materialized slices. A pass accumulates only the
// bounded state its report needs (per-station counters, per-slot buckets,
// a sliding interval window for overlap queries), so the out-of-core merge
// can run every analysis inline at streaming heap; the pipeline keeps no
// O(trace) jframe or exchange slices for anyone to analyze afterwards.
//
// Contract (mirrors core.Pass, which these passes satisfy structurally):
//
//   - ObserveJFrame sees the unified stream in time order (by UnivUS);
//     ObserveExchange sees exchanges in canonical close order. The two
//     callbacks are never concurrent.
//   - When an exchange arrives, every jframe stamped at or below the
//     reconstruction watermark that released it has been observed. Passes
//     whose exchange handling queries the jframe history (interference,
//     diagnosis) need more: every jframe that starts before one of the
//     exchange's data attempts ends. They defer each exchange until their
//     jframe frontier reaches the latest such end, which, the stream being
//     time-ordered, makes the query results exactly those of a whole-trace
//     index.
//   - Finalize is called once, after both streams end; it returns the
//     pass's report and drops every frame reference the pass still holds.
//     A pass reports only what it observed: none reads the pipeline's
//     aggregate core.Result. Table 1's event counts are summed over the
//     summary pass's own jframes, and the transport numbers (summary's
//     flow counts, tcploss's Fig. 11 rows) come from one internal/transport
//     analyzer per pass set: Selection.New hands the first of those passes'
//     analyzer to the other, and only the first feeds it its exchanges.
//
// # Windows
//
// A pass reports on everything it observed and is then finished; there is
// no reset. A driver that wants a report per time window (jigd, through
// internal/serve) builds a fresh set of passes for each window from a
// Selection and finalizes the set when the window closes, so a window's
// report is by construction the one-shot report over the window's events
// and memory is bounded by the window, not the capture — transport state
// included, since it lives in the window's passes. The one-shot rule holds
// for transport analysis too, with its consequence at window boundaries: a
// retransmission whose original went out in an earlier window is not
// counted as one, a flow is complete (and has a Fig. 11 row) only in the
// window that saw its handshake, and a flow active in k windows is counted
// in each of them, so windowed flow and loss counts need not sum to a
// one-shot run's.
package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/unify"
)

// Report is a pass's finalized product: one of the concrete report types
// of this package (*CoverageReport, []StationDiagnosis, *TraceSummary, a
// rendered string, ...).
type Report any

// Pass is one streaming analysis: an incremental observer of the jframe
// and exchange streams that yields its report on Finalize. Every Pass in
// this package also satisfies core.Pass, so a []Pass can be handed to
// core.Config.Passes (element-wise) to run inline over the merge.
type Pass interface {
	// Name is the pass's registry name (the -passes selector token).
	Name() string
	ObserveJFrame(*unify.JFrame)
	ObserveExchange(*llc.Exchange)
	// Finalize computes the report. Call exactly once, after the streams
	// end.
	Finalize() Report
}

// named implements Pass.Name by value.
type named string

func (n named) Name() string { return string(n) }

// noExchange is embedded by jframe-only passes.
type noExchange struct{}

func (noExchange) ObserveExchange(*llc.Exchange) {}

// noJFrame is embedded by exchange-only passes.
type noJFrame struct{}

func (noJFrame) ObserveJFrame(*unify.JFrame) {}

// PassParams carries the operating points the registry's constructors
// need. Zero values select the paper's defaults where one exists.
type PassParams struct {
	// SlotUS is the activity/protection time bucket (the compressed hour
	// in the cmds). Required by timeseries and protection.
	SlotUS int64
	// PracticalTimeoutUS is the protection analysis's practical timeout
	// (0: SlotUS, the cmds' convention).
	PracticalTimeoutUS int64
	// MinPackets is interference's per-pair packet floor (0: 50).
	MinPackets int
	// TCPLossMinSegs is tcploss's per-flow data-segment floor (0: 5).
	TCPLossMinSegs int
	// IsAP distinguishes infrastructure MACs (from scenario ground truth
	// or the meta.json roster). Required by interference and roam.
	IsAP func(dot80211.MAC) bool
	// Out is simulator ground truth; nil when analyzing a bare trace
	// directory. Passes marked NeedsTruth require it.
	Out *scenario.Output
	// VizFromUS/VizDurUS/VizWidth frame the viz pass's window, relative
	// to the first jframe.
	VizFromUS, VizDurUS int64
	VizWidth            int
}

// PassSpec describes one registered pass.
type PassSpec struct {
	Name string
	Desc string
	// NeedsTruth marks passes that require simulator ground truth (the
	// wired tap / oracle); they cannot run over a bare trace directory.
	NeedsTruth bool
	// Optional passes are excluded from the "all" selector (viz needs an
	// explicit window to be meaningful).
	Optional bool
	New      func(PassParams) Pass
}

// passRegistry lists every streaming analysis, in report order.
var passRegistry = []PassSpec{
	{Name: "summary", Desc: "Table 1 trace summary",
		New: func(PassParams) Pass { return NewSummaryPass() }},
	{Name: "coverage", Desc: "Fig. 6 wired-trace coverage", NeedsTruth: true,
		New: func(p PassParams) Pass { return NewCoveragePass(p.Out) }},
	{Name: "timeseries", Desc: "Fig. 8 activity time series",
		New: func(p PassParams) Pass { return NewTimeSeriesPass(p.SlotUS) }},
	{Name: "interference", Desc: "Fig. 9 interference loss rate",
		New: func(p PassParams) Pass {
			min := p.MinPackets
			if min <= 0 {
				min = 50
			}
			return NewInterferencePass(min, p.IsAP)
		}},
	{Name: "protection", Desc: "Fig. 10 overprotective APs",
		New: func(p PassParams) Pass {
			timeout := p.PracticalTimeoutUS
			if timeout == 0 {
				timeout = p.SlotUS
			}
			return NewProtectionPass(timeout, p.SlotUS)
		}},
	{Name: "diagnose", Desc: "§8 per-station diagnosis",
		New: func(PassParams) Pass { return NewDiagnosisPass() }},
	{Name: "tcploss", Desc: "Fig. 11 TCP loss attribution",
		New: func(p PassParams) Pass {
			min := p.TCPLossMinSegs
			if min <= 0 {
				min = 5
			}
			return NewTCPLossPass(min)
		}},
	{Name: "roam", Desc: "handoff detection from the exchange stream",
		New: func(p PassParams) Pass { return NewRoamingPass(p.IsAP) }},
	{Name: "viz", Desc: "Fig. 2 synchronized-trace window", Optional: true,
		New: func(p PassParams) Pass { return NewVizPassRelative(p.VizFromUS, p.VizDurUS, p.VizWidth) }},
}

// PassSpecs returns the registry in report order.
func PassSpecs() []PassSpec {
	out := make([]PassSpec, len(passRegistry))
	copy(out, passRegistry)
	return out
}

// specNames lists the specs' names, in order.
func specNames(specs []PassSpec) []string {
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = spec.Name
	}
	return names
}

// Selection is a validated choice of passes with the parameters they are
// built from: everything that can be wrong with a selector is reported by
// Select, so New has no error path and can be called once per run or once
// per report window.
type Selection struct {
	specs  []PassSpec
	params PassParams
}

// Select resolves a selector — "all" or a comma-separated name list —
// against the registry, in registry order. "all" expands to every
// non-optional pass, silently skipping truth-needing ones when params.Out
// is nil (the caller reports those as skipped); naming a truth-needing
// pass explicitly without ground truth is an error.
func Select(selector string, params PassParams) (Selection, error) {
	want := map[string]bool{}
	all := selector == "" || selector == "all"
	if !all {
		for _, name := range strings.Split(selector, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			found := false
			for _, spec := range passRegistry {
				if spec.Name == name {
					found = true
					break
				}
			}
			if !found {
				return Selection{}, fmt.Errorf("analysis: unknown pass %q (have: %s)", name, strings.Join(specNames(passRegistry), ", "))
			}
			want[name] = true
		}
	}
	sel := Selection{params: params}
	for _, spec := range passRegistry {
		switch {
		case all && (spec.Optional || (spec.NeedsTruth && params.Out == nil)):
			continue
		case !all && !want[spec.Name]:
			continue
		}
		if spec.NeedsTruth && params.Out == nil {
			return Selection{}, fmt.Errorf("analysis: pass %q needs simulator ground truth (wired tap)", spec.Name)
		}
		sel.specs = append(sel.specs, spec)
	}
	return sel, nil
}

// Names lists the selected passes in registry order.
func (s Selection) Names() []string { return specNames(s.specs) }

// New constructs a fresh instance of every selected pass. The passes that
// read TCP share the first one's transport analyzer, which only it feeds.
func (s Selection) New() []Pass {
	out := make([]Pass, len(s.specs))
	var shared *transport.Analyzer
	for i, spec := range s.specs {
		out[i] = spec.New(s.params)
		if f, ok := out[i].(interface{ tcp() *tcpFeed }); ok {
			if shared == nil {
				shared = f.tcp().ta
			} else {
				*f.tcp() = tcpFeed{ta: shared}
			}
		}
	}
	return out
}

// NewPasses is Select followed by New, for the callers that build their
// passes once.
func NewPasses(selector string, params PassParams) ([]Pass, error) {
	sel, err := Select(selector, params)
	if err != nil {
		return nil, err
	}
	return sel.New(), nil
}

// CorePasses converts to the slice type core.Config.Passes takes (Go's
// structural interfaces convert element-wise, not slice-wise).
func CorePasses(passes []Pass) []core.Pass {
	out := make([]core.Pass, len(passes))
	for i, p := range passes {
		out[i] = p
	}
	return out
}

// exchangeDeferral holds exchanges (which arrive in canonical close order)
// until the jframe frontier has reached the latest data attempt end among
// their attempts. The jframe stream is sorted, so by then every jframe
// starting before any of those attempts ends has been observed, and an
// overlap query over the sliding index answers what a whole-trace index
// would. CloseUS is not enough: a data attempt's estimated end can lie past
// its exchange's CloseUS. Exchanges leave in arrival order, so the buffer
// spans the watermark lag plus an airtime.
type exchangeDeferral struct {
	// Each queued exchange carries a reference (Retain on push, Release
	// after delivery), so the driver may release its own reference as soon
	// as the observation call returns.
	q        []*llc.Exchange
	head     int
	frontier int64
}

// noteJFrame advances the frontier.
func (d *exchangeDeferral) noteJFrame(us int64) {
	if us > d.frontier {
		d.frontier = us
	}
}

// push enqueues an exchange, taking a reference for the queue slot.
func (d *exchangeDeferral) push(ex *llc.Exchange) {
	ex.Retain()
	d.q = append(d.q, ex)
}

// dataEndUS is the latest end among ex's data attempts (math.MinInt64 when
// none carries a data frame): the frontier ex waits for.
func dataEndUS(ex *llc.Exchange) int64 {
	end := int64(math.MinInt64)
	for _, at := range ex.Attempts {
		if at.Data != nil {
			end = max(end, at.Data.EndUS())
		}
	}
	return end
}

// flush processes every queued exchange the frontier has cleared, in
// arrival (canonical) order.
func (d *exchangeDeferral) flush(process func(*llc.Exchange)) {
	for d.head < len(d.q) && dataEndUS(d.q[d.head]) <= d.frontier {
		ex := d.q[d.head]
		d.q[d.head] = nil
		d.head++
		process(ex)
		ex.Release()
	}
	if d.head == len(d.q) {
		d.q, d.head = d.q[:0], 0
	}
}

// drain processes everything left (the streams have ended).
func (d *exchangeDeferral) drain(process func(*llc.Exchange)) {
	for d.head < len(d.q) {
		ex := d.q[d.head]
		d.q[d.head] = nil
		d.head++
		process(ex)
		ex.Release()
	}
	d.q, d.head = nil, 0
}

// iv is a half-open transmission interval [start, end) in universal µs.
type iv struct{ start, end int64 }

// overlapMaxAgeUS stops overlapping's left walk at the first interval that
// ends by the probe's start and starts more than this before it (the
// longest frame is about 12 ms).
const overlapMaxAgeUS = 15_000

// overlapIndex answers §7.2's "did another transmission overlap [s, e) on
// this channel" over a sliding window of recent jframe intervals per
// channel, kept sorted by start (the stream is time-ordered, so an insert
// is an append; a late event bubbles into place) and retired behind the
// exchange-close trail.
type overlapIndex struct {
	byCh    map[dot80211.Channel]*chanIvs
	longest int64 // the longest interval ever added, in µs
}

type chanIvs struct {
	ivs []iv
	lo  int // ivs[:lo] pruned
}

// add indexes one transmission interval.
func (x *overlapIndex) add(ch dot80211.Channel, start, end int64) {
	c := x.byCh[ch]
	if c == nil {
		c = &chanIvs{}
		if x.byCh == nil {
			x.byCh = make(map[dot80211.Channel]*chanIvs)
		}
		x.byCh[ch] = c
	}
	x.longest = max(x.longest, end-start)
	c.ivs = append(c.ivs, iv{start, end})
	for i := len(c.ivs) - 1; i > c.lo && c.ivs[i-1].start > c.ivs[i].start; i-- {
		c.ivs[i-1], c.ivs[i] = c.ivs[i], c.ivs[i-1]
	}
}

// overlapping reports whether any *other* transmission overlaps [s, e) on
// ch: the probe's own interval is in the index, so two overlappers are
// required. It walks left from the first interval starting at or after e
// until overlapMaxAgeUS stops it.
func (x *overlapIndex) overlapping(ch dot80211.Channel, s, e int64) bool {
	c := x.byCh[ch]
	if c == nil {
		return false
	}
	live := c.ivs[c.lo:]
	i := sort.Search(len(live), func(k int) bool { return live[k].start >= e })
	hits := 0
	for k := i - 1; k >= 0; k-- {
		if live[k].end <= s {
			if s-live[k].start > overlapMaxAgeUS {
				break
			}
			continue
		}
		hits++
		if hits >= 2 {
			return true
		}
	}
	return false
}

// retire prunes what no later query can reach. Exchanges arrive in close
// order, so later probes start at or after closeUS − 2·llc.ExchangeTimeoutUS
// (llc's reach bound); an interval starting more than max(overlapMaxAgeUS,
// longest) before a probe ends before it and stops overlapping's walk.
// A channel's slice is compacted once half of it is dead.
func (x *overlapIndex) retire(closeUS int64) {
	cutoff := closeUS - 2*llc.ExchangeTimeoutUS - max(overlapMaxAgeUS, x.longest)
	for _, c := range x.byCh {
		for c.lo < len(c.ivs) && c.ivs[c.lo].start < cutoff {
			c.lo++
		}
		if c.lo > 0 && 2*c.lo >= len(c.ivs) {
			c.ivs, c.lo = slices.Delete(c.ivs, 0, c.lo), 0
		}
	}
}

// frameInterval is the indexed extent of a jframe: its airtime, or 1 µs
// for zero-airtime events, matching the legacy index construction.
func frameInterval(j *unify.JFrame) (start, end int64) {
	end = j.EndUS()
	if end == j.UnivUS {
		end = j.UnivUS + 1
	}
	return j.UnivUS, end
}
