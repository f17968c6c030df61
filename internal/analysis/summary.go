package analysis

import (
	"fmt"
	"strings"

	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/transport"
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

// tcpFeed is the transport analyzer a pass reports from, and its
// ObserveExchange. Selection.New gives a set's TCP-reading passes the first
// one's analyzer, which only that one feeds; a pass built alone feeds its
// own.
type tcpFeed struct {
	ta    *transport.Analyzer
	feeds bool
}

func newTCPFeed() tcpFeed { return tcpFeed{ta: transport.NewAnalyzer(), feeds: true} }

// ObserveExchange implements Pass.
func (t *tcpFeed) ObserveExchange(ex *llc.Exchange) {
	if t.feeds {
		t.ta.AddExchange(ex)
	}
}

// tcp exposes the feed to Selection.New.
func (t *tcpFeed) tcp() *tcpFeed { return t }

// SummaryPass builds Table 1 from what it observes: the event counts from
// its jframes' instances, the flow counts from its transport analyzer.
// Clients and APs are told apart by who transmits beacons / carries the
// FromDS bit, exactly as a passive observer must. State is O(stations)
// plus the analyzer's.
type SummaryPass struct {
	named
	tcpFeed
	started         bool
	firstUS, lastUS int64
	multi           int64 // non-PhyOnly jframes
	errs            int64 // physical-error and FCS-failed instances
	aps             map[dot80211.MAC]bool
	clients         map[dot80211.MAC]bool
	s               TraceSummary
}

// NewSummaryPass builds the Table 1 pass.
func NewSummaryPass() *SummaryPass {
	return &SummaryPass{
		named:   "summary",
		tcpFeed: newTCPFeed(),
		aps:     make(map[dot80211.MAC]bool),
		clients: make(map[dot80211.MAC]bool),
	}
}

// ObserveJFrame implements Pass.
func (p *SummaryPass) ObserveJFrame(j *unify.JFrame) {
	if !p.started {
		p.started = true
		p.firstUS = j.UnivUS
	}
	p.lastUS = j.UnivUS
	p.s.JFrames++
	p.s.Events += int64(len(j.Instances))
	if !j.PhyOnly {
		p.multi++
		p.s.UnifiedEvents += int64(len(j.Instances))
	}
	for i := range j.Instances {
		if in := &j.Instances[i]; in.PhyErr || !in.FCSOK {
			p.errs++
		}
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
	if s.Events > 0 {
		s.ErrorEventPct = 100 * float64(p.errs) / float64(s.Events)
	}
	s.TCPFlows = p.ta.Stats.Flows
	s.CompleteFlows = p.ta.Stats.CompleteFlows
	for m := range p.aps {
		delete(p.clients, m)
	}
	s.UniqueAPs = len(p.aps)
	s.UniqueClients = len(p.clients)
	s.DurationUS = p.lastUS - p.firstUS
	if p.multi > 0 {
		s.AvgInstances = float64(s.UnifiedEvents) / float64(p.multi)
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

// TCPLossPass is Fig. 11 as a pass: it reports its transport analyzer's
// per-flow loss attribution.
type TCPLossPass struct {
	named
	noJFrame
	tcpFeed
	minSegs int
}

// NewTCPLossPass builds the Fig. 11 pass over flows with at least minSegs
// data segments.
func NewTCPLossPass(minSegs int) *TCPLossPass {
	return &TCPLossPass{named: "tcploss", tcpFeed: newTCPFeed(), minSegs: minSegs}
}

// TCPLossReport reproduces Fig. 11: the per-flow TCP loss rate CDF with the
// wireless/wired split.
type TCPLossReport struct {
	Flows         int
	LossRates     []float64 // sorted per-flow loss rates
	WirelessShare float64   // share of classified losses that were wireless
	TotalLosses   int
	WirelessLoss  int
	WiredLoss     int
}

// Finalize implements Pass, returning the *TCPLossReport over
// handshake-complete flows.
func (p *TCPLossPass) Finalize() Report {
	rates := p.ta.LossRates(p.minSegs)
	rep := &TCPLossReport{Flows: len(rates)}
	for _, r := range rates {
		rep.LossRates = append(rep.LossRates, r.LossRate)
		rep.TotalLosses += r.Losses
		rep.WirelessLoss += r.WirelessLoss
		rep.WiredLoss += r.WiredLoss
	}
	if cl := rep.WirelessLoss + rep.WiredLoss; cl > 0 {
		rep.WirelessShare = float64(rep.WirelessLoss) / float64(cl)
	}
	return rep
}
