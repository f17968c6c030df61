// Package serve hosts jigd's live-monitoring layer: a Monitor that rides
// inside the pipeline as a core.Pass and publishes windowed analysis
// reports, plus the HTTP surface over it.
//
// # Windows
//
// A report window is a fresh set of passes. The Monitor builds the selected
// passes when a window opens, feeds them exactly the events that belong to
// the window, and when the window closes hands them the latest core.Result,
// calls their ordinary Finalize, publishes the reports and drops the set —
// so a window's report is the one-shot report over the window's events, and
// pass state is bounded by the window, not the capture length.
//
// Which events belong to a window is the Monitor's job. It observes the raw
// jframe stream to maintain a frontier (the maximum UnivUS emitted so far)
// and buffers every event whose timestamp lies beyond the open window.
// Because the unifier's emission order can locally invert by up to its
// search window, a window [start, end] only closes once the frontier
// reaches end + SlackUS: at that point every jframe with UnivUS <= end has
// been emitted and delivered, in arrival order. A pass set therefore never
// observes an event beyond its window's end (TestMonitorWindowGolden pins
// the published windows and checks that none is dropped or seen twice).
//
// All pipeline-facing methods (ObserveJFrame, ObserveExchange, SetResult,
// Flush) run on the goroutine that called core.RunFrom, one at a time, at
// every Workers setting (core's Pass contract). The read side (Healthy,
// Summary, Report, Metrics) is safe from any goroutine: closed-window
// reports are detached snapshots published under a lock, and counters are
// atomics — HTTP handlers never touch pass state.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/unify"
)

// DefaultSlackUS is how far the frontier must clear a window boundary
// before the window closes. It must cover BOTH reordering sources between
// stream time and delivery: the unifier's emission-order inversion (its
// batches span at most four 10 ms search windows, unify.DefaultConfig; the
// bound itself is ROADMAP item 3's to test) and the reconstructor's watermark
// lag (exchanges stay open up to the 500 ms exchange timeout, and core
// releases them only after the jframe that advanced the watermark). 1 s
// covers both with margin; less risks an exchange arriving after its window.
const DefaultSlackUS = 1_000_000

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// WindowUS is the report window length in universal microseconds.
	WindowUS int64
	// SlackUS delays window closes past the boundary to cover emission
	// reordering (0: DefaultSlackUS).
	SlackUS int64
	// Passes selects the analyses to serve; the Monitor builds one set of
	// them per window.
	Passes analysis.Selection
	// OnWindow, when non-nil, runs on the pipeline goroutine after each
	// window closes — the hook jigd logs from.
	OnWindow func(endUS int64)
}

// WindowReport is one pass's report for one closed window — the Section
// encoding jiganalyze -json emits, plus the window bounds.
type WindowReport struct {
	analysis.Section
	WindowStartUS int64 `json:"window_start_us"`
	WindowEndUS   int64 `json:"window_end_us"`
}

// pendingEvent is one buffered stream event past the open window's end.
// The buffer slot holds a reference on whichever object it carries
// (retained on append, released after the pump or Flush delivers it).
type pendingEvent struct {
	j  *unify.JFrame
	ex *llc.Exchange
}

// retain takes the buffer slot's reference.
func (e pendingEvent) retain() {
	if e.j != nil {
		e.j.Retain()
	} else {
		e.ex.Retain()
	}
}

// release drops the buffer slot's reference.
func (e pendingEvent) release() {
	if e.j != nil {
		e.j.Release()
	} else {
		e.ex.Release()
	}
}

func (e pendingEvent) timeUS() int64 {
	if e.j != nil {
		return e.j.UnivUS
	}
	return e.ex.CloseUS
}

// Monitor drives one pass set per window inside a live pipeline run and
// publishes their reports. It implements core.Pass and core.ResultSink;
// run it as the only entry in core.Config.Passes (jigd does).
type Monitor struct {
	windowUS int64
	slackUS  int64
	sel      analysis.Selection
	names    []string
	onWindow func(endUS int64)

	// Pipeline-goroutine state.
	started         bool
	passes          []analysis.Pass // the open window's set
	winStartUS      int64
	winEndUS        int64
	frontierUS      int64
	pending         []pendingEvent
	winHasData      bool
	lastClosedEndUS int64
	lastResult      *core.Result

	// Cross-goroutine state.
	framesTotal    atomic.Int64
	exchangesTotal atomic.Int64
	frontierAtomic atomic.Int64
	deliveredUS    atomic.Int64 // exchange delivery frontier (watermark lag's far side)
	windowsClosed  atomic.Int64

	mu      sync.RWMutex
	reports map[string]WindowReport
	stats   SummaryStats
}

// SummaryStats is the cumulative pipeline view /summary serves; a
// detached copy refreshed at every result snapshot and window close.
type SummaryStats struct {
	Unify         unify.Stats `json:"unify"`
	LLC           llc.Stats   `json:"llc"`
	WindowsClosed int64       `json:"windows_closed"`
	WindowUS      int64       `json:"window_us"`
	LastWindowEnd int64       `json:"last_window_end_us"`
	Passes        []string    `json:"passes"`
	// UnsyncedRadios are the radios the bootstrap could not synchronize:
	// the pipeline never opens them, so their records are in no report.
	UnsyncedRadios []int32 `json:"unsynced_radios"`
}

// NewMonitor validates the configuration and builds a Monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.WindowUS <= 0 {
		return nil, fmt.Errorf("serve: WindowUS must be positive, have %d", cfg.WindowUS)
	}
	if cfg.SlackUS <= 0 {
		cfg.SlackUS = DefaultSlackUS
	}
	names := cfg.Passes.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("serve: no passes")
	}
	return &Monitor{
		windowUS: cfg.WindowUS,
		slackUS:  cfg.SlackUS,
		sel:      cfg.Passes,
		names:    names,
		onWindow: cfg.OnWindow,
		reports:  make(map[string]WindowReport, len(names)),
	}, nil
}

// PassNames lists the served passes in registry order. The slice is
// shared; callers must not modify it.
func (m *Monitor) PassNames() []string { return m.names }

// ObserveJFrame implements core.Pass. Window closes are pumped BEFORE the
// incoming jframe advances the frontier: core releases an iteration's
// exchanges only after delivering its jframe, so the frontier as of the
// previous jframe is the newest time for which "every exchange at or
// before winEnd has been delivered" is known to hold (given SlackUS covers
// the watermark lag). Pumping against the pre-update frontier — and never
// from the exchange callback — keeps a late-released exchange from landing
// after its window closed, even across idle gaps in the trace.
func (m *Monitor) ObserveJFrame(j *unify.JFrame) {
	m.framesTotal.Add(1)
	m.pump()
	if !m.started {
		m.started = true
		m.winStartUS = j.UnivUS
		m.winEndUS = j.UnivUS + m.windowUS
		m.passes = m.sel.New()
	}
	if j.UnivUS > m.frontierUS {
		m.frontierUS = j.UnivUS
		m.frontierAtomic.Store(j.UnivUS)
	}
	if j.UnivUS <= m.winEndUS {
		m.deliverJFrame(j)
	} else {
		e := pendingEvent{j: j}
		e.retain()
		m.pending = append(m.pending, e)
	}
}

// ObserveExchange implements core.Pass. Exchanges arrive in canonical
// close order; anything beyond the open window waits for the pump (see
// ObserveJFrame for why the exchange callback itself never closes
// windows).
func (m *Monitor) ObserveExchange(ex *llc.Exchange) {
	m.exchangesTotal.Add(1)
	if ex.CloseUS <= m.winEndUS {
		m.deliverExchange(ex)
	} else {
		e := pendingEvent{ex: ex}
		e.retain()
		m.pending = append(m.pending, e)
	}
}

// SetResult implements core.ResultSink: the result is kept for the next
// window close (where the passes' result-derived report fields come
// from), and the cumulative stats snapshot is republished. With
// core.Config.SnapshotEveryUS set this fires throughout the run, not only
// at the end.
func (m *Monitor) SetResult(res *core.Result) {
	m.lastResult = res
	m.publishStats()
}

func (m *Monitor) deliverJFrame(j *unify.JFrame) {
	m.winHasData = true
	for _, p := range m.passes {
		p.ObserveJFrame(j)
	}
}

func (m *Monitor) deliverExchange(ex *llc.Exchange) {
	m.winHasData = true
	m.deliveredUS.Store(ex.CloseUS)
	for _, p := range m.passes {
		p.ObserveExchange(ex)
	}
}

// pump closes every window the frontier has cleared.
func (m *Monitor) pump() {
	for m.started && m.frontierUS >= m.winEndUS+m.slackUS {
		m.closeWindow(m.winEndUS)
		m.winStartUS = m.winEndUS
		m.winEndUS += m.windowUS
		m.passes = m.sel.New()
		// Release the buffered events now inside the open window, in
		// arrival order.
		kept := m.pending[:0]
		for _, e := range m.pending {
			if e.timeUS() <= m.winEndUS {
				if e.j != nil {
					m.deliverJFrame(e.j)
				} else {
					m.deliverExchange(e.ex)
				}
				e.release()
			} else {
				kept = append(kept, e)
			}
		}
		for i := len(kept); i < len(m.pending); i++ {
			m.pending[i] = pendingEvent{}
		}
		m.pending = kept
	}
}

// closeWindow finalizes the open window's passes, publishes their reports
// with upToUS as the window's end, and drops the set.
func (m *Monitor) closeWindow(upToUS int64) {
	snaps := make(map[string]WindowReport, len(m.passes))
	for _, p := range m.passes {
		if rs, ok := p.(core.ResultSink); ok && m.lastResult != nil {
			rs.SetResult(m.lastResult)
		}
		sec, err := analysis.SectionJSON(p.Name(), p.Finalize())
		if err != nil {
			// Registry drift: serve an explicit error section rather than
			// dropping the pass silently.
			sec = analysis.Section{Pass: p.Name(), Summary: err.Error(), Rows: []struct{}{}}
		}
		snaps[p.Name()] = WindowReport{
			Section:       sec,
			WindowStartUS: m.winStartUS,
			WindowEndUS:   upToUS,
		}
	}
	m.passes = nil
	m.windowsClosed.Add(1)
	m.winHasData = false
	m.lastClosedEndUS = upToUS
	m.mu.Lock()
	for name, r := range snaps {
		m.reports[name] = r
	}
	m.mu.Unlock()
	m.publishStats()
	if m.onWindow != nil {
		m.onWindow(upToUS)
	}
}

// publishStats refreshes the /summary snapshot from the latest result.
func (m *Monitor) publishStats() {
	s := SummaryStats{
		WindowsClosed: m.windowsClosed.Load(),
		WindowUS:      m.windowUS,
		LastWindowEnd: m.lastClosedEndUS,
		Passes:        m.names,
	}
	if m.lastResult != nil {
		s.Unify = m.lastResult.UnifyStats
		s.LLC = m.lastResult.LLCStats
		s.UnsyncedRadios = m.lastResult.Bootstrap.Unsynced
	}
	m.mu.Lock()
	m.stats = s
	m.mu.Unlock()
}

// Flush closes the trailing partial window after the pipeline drains.
// Call it once, after core.RunFrom returns (SetResult has already fired
// with the final stats by then).
func (m *Monitor) Flush() {
	if !m.started {
		return
	}
	for _, e := range m.pending {
		if e.j != nil {
			m.deliverJFrame(e.j)
		} else {
			m.deliverExchange(e.ex)
		}
		e.release()
	}
	m.pending = nil
	end := m.winEndUS
	if m.frontierUS > end {
		end = m.frontierUS
	}
	if m.winHasData {
		m.closeWindow(end)
	}
}

// Healthy reports whether at least one window has closed — the readiness
// signal /healthz serves.
func (m *Monitor) Healthy() bool { return m.windowsClosed.Load() > 0 }

// Summary returns the cumulative stats snapshot.
func (m *Monitor) Summary() SummaryStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// Report returns the latest closed-window report for one pass.
func (m *Monitor) Report(pass string) (WindowReport, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.reports[pass]
	return r, ok
}

// Counters is the live progress view /metrics serves.
type Counters struct {
	FramesTotal    int64 `json:"frames_total"`
	ExchangesTotal int64 `json:"exchanges_total"`
	FrontierUS     int64 `json:"frontier_us"`
	DeliveredUS    int64 `json:"delivered_us"`
	// WatermarkLagUS is how far exchange delivery trails the jframe
	// frontier — the pipeline's in-flight span.
	WatermarkLagUS int64 `json:"watermark_lag_us"`
	WindowsClosed  int64 `json:"windows_closed"`
}

// Metrics returns the current counters.
func (m *Monitor) Metrics() Counters {
	c := Counters{
		FramesTotal:    m.framesTotal.Load(),
		ExchangesTotal: m.exchangesTotal.Load(),
		FrontierUS:     m.frontierAtomic.Load(),
		DeliveredUS:    m.deliveredUS.Load(),
		WindowsClosed:  m.windowsClosed.Load(),
	}
	if c.FrontierUS > c.DeliveredUS && c.DeliveredUS > 0 {
		c.WatermarkLagUS = c.FrontierUS - c.DeliveredUS
	}
	return c
}
