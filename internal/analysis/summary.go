package analysis

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/unify"
)

// TraceSummary is Table 1: the high-level characteristics of the trace.
type TraceSummary struct {
	DurationUS      int64
	Events          int64   // records across all monitors
	ErrorEventPct   float64 // physical or CRC errors (paper: 47%)
	UnifiedEvents   int64   // records merged into jframes
	JFrames         int64   // paper: 530 M from 1.58 G events
	AvgInstances    float64 // paper: 2.97 observations per transmission
	UniqueClients   int     // paper: 1,026 client MACs
	UniqueAPs       int
	DataFrames      int64
	MgmtFrames      int64
	ControlFrames   int64
	BeaconFrames    int64
	BroadcastFrames int64
	TCPFlows        int64
	CompleteFlows   int64
}

// SummaryPass builds Table 1 incrementally from the jframe stream; the
// unify/llc/transport aggregates arrive through core.ResultSink once the
// run completes. Clients and APs are told apart by who transmits beacons /
// carries the FromDS bit, exactly as a passive observer must. State is
// O(stations).
type SummaryPass struct {
	named
	noExchange
	started         bool
	firstUS, lastUS int64
	multi           int64
	instances       int64
	aps             map[dot80211.MAC]bool
	clients         map[dot80211.MAC]bool
	s               TraceSummary
	res             *core.Result
}

// NewSummaryPass builds the Table 1 pass.
func NewSummaryPass() *SummaryPass {
	return &SummaryPass{
		named:   "summary",
		aps:     make(map[dot80211.MAC]bool),
		clients: make(map[dot80211.MAC]bool),
	}
}

// SetResult implements core.ResultSink.
func (p *SummaryPass) SetResult(res *core.Result) { p.res = res }

// ObserveJFrame implements Pass.
func (p *SummaryPass) ObserveJFrame(j *unify.JFrame) {
	if !p.started {
		p.started = true
		p.firstUS = j.UnivUS
	}
	p.lastUS = j.UnivUS
	if !j.PhyOnly {
		p.multi++
		p.instances += int64(len(j.Instances))
	}
	if !j.Valid {
		return
	}
	f := &j.Frame
	switch {
	case f.IsBeacon():
		p.s.BeaconFrames++
		p.s.MgmtFrames++
		p.aps[f.Addr2] = true
	case f.Type == dot80211.TypeManagement:
		p.s.MgmtFrames++
	case f.Type == dot80211.TypeControl:
		p.s.ControlFrames++
	case f.IsData():
		p.s.DataFrames++
		if f.Addr1.IsMulticast() {
			p.s.BroadcastFrames++
		}
		if f.Flags&dot80211.FlagFromDS != 0 {
			p.aps[f.Addr2] = true
		} else if f.Flags&dot80211.FlagToDS != 0 {
			p.clients[f.Addr2] = true
		}
	}
}

// Finalize implements Pass, returning the *TraceSummary.
func (p *SummaryPass) Finalize() Report {
	s := p.s
	if p.res != nil {
		s.Events = p.res.UnifyStats.Events
		s.UnifiedEvents = p.res.UnifyStats.Unified
		s.JFrames = p.res.UnifyStats.JFrames
		errs := p.res.UnifyStats.PhyErrors + p.res.UnifyStats.CRCErrors
		if s.Events > 0 {
			s.ErrorEventPct = 100 * float64(errs) / float64(s.Events)
		}
		s.TCPFlows = p.res.Transport.Stats.Flows
		s.CompleteFlows = int64(p.res.Transport.Stats.CompleteFlows)
	}
	for m := range p.aps {
		delete(p.clients, m)
	}
	s.UniqueAPs = len(p.aps)
	s.UniqueClients = len(p.clients)
	s.DurationUS = p.lastUS - p.firstUS
	if p.multi > 0 {
		s.AvgInstances = float64(p.instances) / float64(p.multi)
	}
	return &s
}

// String renders the summary as a paper-style table.
func (s *TraceSummary) String() string {
	var b strings.Builder
	row := func(k string, v any) { fmt.Fprintf(&b, "%-28s %v\n", k, v) }
	row("trace duration (s)", s.DurationUS/1e6)
	row("monitor events", s.Events)
	row("error events (%)", fmt.Sprintf("%.1f", s.ErrorEventPct))
	row("unified events", s.UnifiedEvents)
	row("jframes", s.JFrames)
	row("avg observations/frame", fmt.Sprintf("%.2f", s.AvgInstances))
	row("unique clients", s.UniqueClients)
	row("unique APs", s.UniqueAPs)
	row("data frames", s.DataFrames)
	row("management frames", s.MgmtFrames)
	row("control frames", s.ControlFrames)
	row("beacons", s.BeaconFrames)
	row("broadcast data", s.BroadcastFrames)
	row("tcp flows (complete)", fmt.Sprintf("%d (%d)", s.TCPFlows, s.CompleteFlows))
	return b.String()
}

// InferenceStats reports the §5.1 headline: the share of transmission
// attempts and frame exchanges that required inference.
type InferenceStats struct {
	Attempts         int64
	InferredAttempts int64
	Exchanges        int64
	InferredExch     int64
}

// AttemptRate returns inferred attempts / attempts.
func (s InferenceStats) AttemptRate() float64 {
	if s.Attempts == 0 {
		return 0
	}
	return float64(s.InferredAttempts) / float64(s.Attempts)
}

// ExchangeRate returns inferred exchanges / exchanges.
func (s InferenceStats) ExchangeRate() float64 {
	if s.Exchanges == 0 {
		return 0
	}
	return float64(s.InferredExch) / float64(s.Exchanges)
}

// Inference extracts the §5.1 statistics from LLC stats.
func Inference(st llc.Stats) InferenceStats {
	return InferenceStats{
		Attempts: st.Attempts, InferredAttempts: st.InferredAttempts,
		Exchanges: st.Exchanges, InferredExch: st.InferredExchanges,
	}
}

// TCPLossPass is Fig. 11 as a pass: purely result-derived (the transport
// analyzer already aggregates per-flow loss attribution in bounded
// memory), it observes nothing and finalizes from core.ResultSink.
type TCPLossPass struct {
	named
	noJFrame
	noExchange
	minSegs int
	res     *core.Result
}

// NewTCPLossPass builds the Fig. 11 pass over flows with at least minSegs
// data segments.
func NewTCPLossPass(minSegs int) *TCPLossPass {
	return &TCPLossPass{named: "tcploss", minSegs: minSegs}
}

// SetResult implements core.ResultSink.
func (p *TCPLossPass) SetResult(res *core.Result) { p.res = res }

// Finalize implements Pass, returning the *TCPLossReport.
func (p *TCPLossPass) Finalize() Report {
	if p.res == nil {
		return &TCPLossReport{}
	}
	return TCPLoss(p.res.Transport.LossRates(p.minSegs))
}
