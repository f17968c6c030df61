// Package serve hosts jigd's live-monitoring layer: a Monitor that rides
// inside the pipeline as a core.Pass and publishes windowed analysis
// reports, plus the HTTP surface over it.
//
// # Windows
//
// A report window is a fresh set of passes. The Monitor builds the selected
// passes when a window opens, feeds them exactly the events that belong to
// the window, and when the window closes calls their ordinary Finalize,
// publishes the reports and drops the set — so a window's report is the
// one-shot report over the window's events, and pass state, transport
// analysis included, is bounded by the window, not the capture length. No
// pass reads the run's core.Result: every number in a window report is
// counted from that window's events, so a flow or a retransmission that
// straddles a window boundary is reported as each window saw it
// (internal/analysis's package comment has the rule). The cumulative view
// is /summary's, which Summary serves from the latest core.Result.
//
// Which events belong to a window is the Monitor's job: a jframe belongs by
// its UnivUS and an exchange by its CloseUS to the window (start, end] that
// holds it. Events up to the open window's end are delivered as they arrive,
// later ones wait in a buffer. Jframes arrive in time order, but the newest
// event says nothing about which exchanges are still to come (an exchange
// closes after its frames); the pipeline says that itself: core.Result's
// CompleteUS, below which every jframe and exchange has been delivered — the
// reconstructor's watermark over the unifier's time-ordered stream, a bound
// by construction whose one premise is time-ordered records per radio (the
// unifier's floor has the argument). A window closes in SetResult and
// nowhere else, once its end is below both the largest CompleteUS seen and
// the jframe frontier; the run's final result is complete to +∞, so it
// closes every whole window with its own bounds and Flush publishes the
// trailing partial one. There is no margin to tune. Against the one-second frontier slack this replaced,
// live_paced's window_lag_ms_p50 at 4× pace fell from 340 to 93 ms and jigd's
// peak heap from 53 to 27 MB (ten alternating pairs; CHANGES.md, PR 22).
//
// Two limits. The watermark, and so core's snapshots, advances only on
// FCS-valid jframes: through a stretch of corrupt and phy-error frames windows
// are held until a valid frame arrives or the run ends. And an event stamped
// at or before the last closed window's end, possible only when a trace breaks
// the premise, goes to the open window and is counted (/metrics late_events).
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

// DefaultSlackUS is the frontier margin windows used to close behind. Nothing
// outside bench/ reads it: bench/live.go expects the windows ending at least
// this long before the trace does to close during a run.
const DefaultSlackUS = 1_000_000

// ProgressEveryUS is the core.Config.SnapshotEveryUS to run a Monitor under
// (jigd does): one unify search window, so a window end waits at most 10 ms
// of trace time (2.5 ms of wall at 4× pace) for the result that closes it.
const ProgressEveryUS = 10_000

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// WindowUS is the report window length in universal microseconds.
	WindowUS int64
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
// (retained on append, released once a later window or Flush delivers it).
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
	sel      analysis.Selection
	names    []string
	onWindow func(endUS int64)

	// Pipeline-goroutine state.
	started         bool
	passes          []analysis.Pass // the open window's set
	winStartUS      int64
	winEndUS        int64
	frontierUS      int64
	completeUS      int64 // largest core.Result.CompleteUS seen
	pending         []pendingEvent
	lastClosedEndUS int64
	lastResult      *core.Result

	// Cross-goroutine state.
	framesTotal    atomic.Int64
	exchangesTotal atomic.Int64
	frontierAtomic atomic.Int64
	deliveredUS    atomic.Int64 // exchange delivery frontier (watermark lag's far side)
	completeAtomic atomic.Int64
	lateEvents     atomic.Int64
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
	names := cfg.Passes.Names()
	if len(names) == 0 {
		return nil, fmt.Errorf("serve: no passes")
	}
	return &Monitor{
		windowUS: cfg.WindowUS,
		sel:      cfg.Passes,
		names:    names,
		onWindow: cfg.OnWindow,
		reports:  make(map[string]WindowReport, len(names)),
	}, nil
}

// PassNames lists the served passes in registry order. The slice is
// shared; callers must not modify it.
func (m *Monitor) PassNames() []string { return m.names }

// ObserveJFrame implements core.Pass. Neither it nor ObserveExchange ever
// closes a window.
func (m *Monitor) ObserveJFrame(j *unify.JFrame) {
	m.framesTotal.Add(1)
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
	m.observe(pendingEvent{j: j})
}

// ObserveExchange implements core.Pass. Exchanges arrive in canonical
// close order.
func (m *Monitor) ObserveExchange(ex *llc.Exchange) {
	m.exchangesTotal.Add(1)
	m.observe(pendingEvent{ex: ex})
}

// observe delivers e to the open window or buffers it for a later one.
func (m *Monitor) observe(e pendingEvent) {
	if e.timeUS() > m.winEndUS {
		e.retain()
		m.pending = append(m.pending, e)
		return
	}
	if m.windowsClosed.Load() > 0 && e.timeUS() <= m.lastClosedEndUS {
		m.lateEvents.Add(1) // its window is gone: degrade and count
	}
	m.deliver(e)
}

// SetResult implements core.ResultSink and is where windows close: every
// window ending below res.CompleteUS and below the frontier has all its
// events. The result also supplies the republished cumulative stats. Under
// ProgressEveryUS snapshots this fires throughout the run; the final call,
// complete to +∞, closes every whole window left.
func (m *Monitor) SetResult(res *core.Result) {
	m.lastResult = res
	if res.CompleteUS > m.completeUS {
		m.completeUS = res.CompleteUS
		m.completeAtomic.Store(res.CompleteUS)
	}
	for m.started && m.winEndUS < m.completeUS && m.winEndUS < m.frontierUS {
		m.closeWindow()
		m.winStartUS = m.winEndUS
		m.winEndUS += m.windowUS
		m.passes = m.sel.New()
		// Release the buffered events now inside the open window, in
		// arrival order.
		kept := m.pending[:0]
		for _, e := range m.pending {
			if e.timeUS() <= m.winEndUS {
				m.deliver(e)
				e.release()
			} else {
				kept = append(kept, e)
			}
		}
		clear(m.pending[len(kept):])
		m.pending = kept
	}
	m.publishStats()
}

// deliver hands e to the open window's passes.
func (m *Monitor) deliver(e pendingEvent) {
	if e.j != nil {
		for _, p := range m.passes {
			p.ObserveJFrame(e.j)
		}
		return
	}
	m.deliveredUS.Store(e.ex.CloseUS)
	for _, p := range m.passes {
		p.ObserveExchange(e.ex)
	}
}

// closeWindow finalizes the open window's passes, publishes their reports
// and drops the set.
func (m *Monitor) closeWindow() {
	snaps := make(map[string]WindowReport, len(m.passes))
	for _, p := range m.passes {
		sec, err := analysis.SectionJSON(p.Name(), p.Finalize())
		if err != nil {
			// Registry drift: serve an explicit error section rather than
			// dropping the pass silently.
			sec = analysis.Section{Pass: p.Name(), Summary: err.Error(), Rows: []struct{}{}}
		}
		snaps[p.Name()] = WindowReport{
			Section:       sec,
			WindowStartUS: m.winStartUS,
			WindowEndUS:   m.winEndUS,
		}
	}
	m.passes = nil
	m.windowsClosed.Add(1)
	m.lastClosedEndUS = m.winEndUS
	m.mu.Lock()
	for name, r := range snaps {
		m.reports[name] = r
	}
	m.mu.Unlock()
	m.publishStats()
	if m.onWindow != nil {
		m.onWindow(m.winEndUS)
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

// Flush closes the trailing partial window after the pipeline drains. Call
// it once, after core.RunFrom returns: the final SetResult has closed every
// whole window, so the open one holds the frontier jframe. It also takes what
// is still buffered: exchanges the end of the run closed at their timeout, up
// to 500 ms past the last jframe.
func (m *Monitor) Flush() {
	if !m.started {
		return
	}
	for _, e := range m.pending {
		m.deliver(e)
		e.release()
	}
	m.pending = nil
	m.closeWindow()
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
	// LateEvents counts events stamped at or before the last closed window's
	// end: 0 unless a trace broke the time-order premise.
	LateEvents int64 `json:"late_events"`
	// CompleteLagUS is how far the largest core.Result.CompleteUS seen trails
	// the frontier: what a window end waits on evidence.
	CompleteUS    int64 `json:"complete_us"`
	CompleteLagUS int64 `json:"complete_lag_us"`
}

// Metrics returns the current counters.
func (m *Monitor) Metrics() Counters {
	c := Counters{
		FramesTotal:    m.framesTotal.Load(),
		ExchangesTotal: m.exchangesTotal.Load(),
		FrontierUS:     m.frontierAtomic.Load(),
		DeliveredUS:    m.deliveredUS.Load(),
		WindowsClosed:  m.windowsClosed.Load(),
		LateEvents:     m.lateEvents.Load(),
		CompleteUS:     m.completeAtomic.Load(),
	}
	if c.FrontierUS > c.DeliveredUS && c.DeliveredUS > 0 {
		c.WatermarkLagUS = c.FrontierUS - c.DeliveredUS
	}
	if c.FrontierUS > c.CompleteUS && c.CompleteUS > 0 {
		c.CompleteLagUS = c.FrontierUS - c.CompleteUS
	}
	return c
}
