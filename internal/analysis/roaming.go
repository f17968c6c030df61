// Handoff analysis: reconstruct client mobility events purely from the
// unified, reconstructed frame-exchange stream — no simulator ground truth
// in the loop. A handoff appears on the air as a disassociation toward the
// old AP, a burst of probe requests sweeping the channels, and an
// auth/assoc handshake with a new BSSID; the detector walks the canonical
// exchange stream, tracks each station's serving AP, and emits one event
// per observed transition. Ground truth (scenario.Handoff) is used only to
// score the detector, the same way the CC confusion matrix is scored.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
)

// HandoffEvent is one detected client handoff.
type HandoffEvent struct {
	Client dot80211.MAC
	FromAP dot80211.MAC
	ToAP   dot80211.MAC
	// StartUS is the first evidence the client was leaving (the
	// disassociation when captured, else the first auth/assoc exchange
	// toward the new AP); EndUS is when the new association completed.
	StartUS int64
	EndUS   int64
	// SawDisassoc: the disassociation frame itself was captured, so
	// StartUS is the true start of the gap.
	SawDisassoc bool
	// MgmtEvidence: detected from the association handshake. False means
	// the handshake was missed and the transition was inferred from data
	// exchanges alone.
	MgmtEvidence bool
}

// LatencyUS is the detected handoff's outage bound.
func (e HandoffEvent) LatencyUS() int64 { return e.EndUS - e.StartUS }

// RoamingReport is the handoff-analysis pass output.
type RoamingReport struct {
	Events    []HandoffEvent
	PerClient map[dot80211.MAC]int
	// MeanLatencyUS averages over events with mgmt evidence (data-only
	// transitions have no meaningful latency bound).
	MeanLatencyUS float64
	// DataOnly counts transitions inferred without any captured
	// management handshake.
	DataOnly int
}

// disassocLinkUS bounds how far back a captured disassociation is accepted
// as the start of a subsequent association's handoff.
const disassocLinkUS = 5_000_000

// dataTransitionMin is how many consecutive data exchanges with a new AP
// are required before a transition with no management evidence is
// believed; stragglers retransmitted toward the old AP would otherwise
// fabricate ping-pong handoffs.
const dataTransitionMin = 3

// roamTrack is per-station detector state.
type roamTrack struct {
	curAP dot80211.MAC

	hasDis bool
	disAP  dot80211.MAC
	disUS  int64

	hasJoin     bool
	joinAP      dot80211.MAC
	joinStartUS int64

	candAP    dot80211.MAC
	candCount int
	candUS    int64
}

// RoamingPass runs the handoff detector incrementally over the canonical
// exchange stream. State is O(stations): one roamTrack per client plus the
// events detected so far.
type RoamingPass struct {
	named
	noJFrame
	isAP   func(dot80211.MAC) bool
	rep    *RoamingReport
	tracks map[dot80211.MAC]*roamTrack
	latSum int64
	latN   int
}

// NewRoamingPass builds the handoff-detection pass. isAP distinguishes
// infrastructure addresses from stations, the same predicate the
// interference analysis takes.
func NewRoamingPass(isAP func(dot80211.MAC) bool) *RoamingPass {
	return &RoamingPass{
		named: "roam", isAP: isAP,
		rep:    &RoamingReport{PerClient: make(map[dot80211.MAC]int)},
		tracks: make(map[dot80211.MAC]*roamTrack),
	}
}

func (p *RoamingPass) track(c dot80211.MAC) *roamTrack {
	t := p.tracks[c]
	if t == nil {
		t = &roamTrack{}
		p.tracks[c] = t
	}
	return t
}

func (p *RoamingPass) emit(e HandoffEvent) {
	p.rep.Events = append(p.rep.Events, e)
	p.rep.PerClient[e.Client]++
	if e.MgmtEvidence {
		p.latSum += e.LatencyUS()
		p.latN++
	} else {
		p.rep.DataOnly++
	}
}

// ObserveExchange implements Pass.
func (p *RoamingPass) ObserveExchange(ex *llc.Exchange) {
	if ex.Broadcast {
		return
	}
	j := ex.Data()
	if j == nil {
		return // fully inferred exchange: no frame kind to go on
	}
	f := &j.Frame
	tx, rx := ex.Transmitter, ex.Receiver
	switch {
	case p.isAP(tx) && !p.isAP(rx) && !rx.IsZero():
		t := p.track(rx)
		switch {
		case f.Type == dot80211.TypeManagement && f.Subtype == dot80211.SubtypeAssocResp:
			from := t.curAP
			if from.IsZero() && t.hasDis {
				from = t.disAP
			}
			if !from.IsZero() && from != tx {
				e := HandoffEvent{
					Client: rx, FromAP: from, ToAP: tx,
					StartUS: ex.StartUS, EndUS: ex.EndUS,
					MgmtEvidence: true,
				}
				if t.hasDis && ex.EndUS-t.disUS >= 0 && ex.EndUS-t.disUS < disassocLinkUS {
					e.StartUS = t.disUS
					e.SawDisassoc = true
				} else if t.hasJoin && t.joinAP == tx && t.joinStartUS < e.StartUS {
					e.StartUS = t.joinStartUS
				}
				p.emit(e)
			}
			t.curAP = tx
			t.hasDis, t.hasJoin = false, false
			t.candCount = 0
		case f.IsData():
			observeDataTransition(t, rx, tx, ex, p.emit)
		}
	case !p.isAP(tx) && p.isAP(rx) && !tx.IsZero():
		t := p.track(tx)
		switch {
		case f.Type == dot80211.TypeManagement && f.Subtype == dot80211.SubtypeDisassoc:
			t.hasDis, t.disAP, t.disUS = true, rx, ex.StartUS
		case f.Type == dot80211.TypeManagement &&
			(f.Subtype == dot80211.SubtypeAuth || f.Subtype == dot80211.SubtypeAssocReq ||
				f.Subtype == dot80211.SubtypeReassocReq):
			if rx != t.curAP && (!t.hasJoin || t.joinAP != rx) {
				t.hasJoin, t.joinAP, t.joinStartUS = true, rx, ex.StartUS
			}
		case f.IsData():
			observeDataTransition(t, tx, rx, ex, p.emit)
		}
	}
}

// Finalize implements Pass, returning the *RoamingReport.
func (p *RoamingPass) Finalize() Report {
	if p.latN > 0 {
		p.rep.MeanLatencyUS = float64(p.latSum) / float64(p.latN)
	}
	return p.rep
}

// observeDataTransition updates a station's serving-AP belief from a data
// exchange and emits a management-less transition once enough consecutive
// exchanges agree.
func observeDataTransition(t *roamTrack, client, ap dot80211.MAC, ex *llc.Exchange, emit func(HandoffEvent)) {
	if t.curAP.IsZero() {
		t.curAP = ap
		return
	}
	if ap == t.curAP {
		// Serving-AP traffic kills any candidacy outright: a later real
		// transition must restart its evidence (and its StartUS) fresh.
		t.candAP, t.candCount = dot80211.MAC{}, 0
		return
	}
	if t.candAP != ap {
		t.candAP, t.candCount, t.candUS = ap, 0, ex.StartUS
	}
	t.candCount++
	if t.candCount >= dataTransitionMin {
		emit(HandoffEvent{
			Client: client, FromAP: t.curAP, ToAP: ap,
			StartUS: t.candUS, EndUS: ex.EndUS,
		})
		t.curAP = ap
		t.candCount = 0
		t.hasDis, t.hasJoin = false, false
	}
}

// HandoffScore grades the detector against simulator ground truth.
type HandoffScore struct {
	Truth   int // ground-truth handoffs (completed ones)
	Matched int // truth handoffs a detected event accounts for
	Events  int // detected events in total
	Recall  float64
	// MeanAbsEndErrUS is the mean |detected completion − true completion|
	// over matched pairs.
	MeanAbsEndErrUS float64
}

// handoffMatchWindowUS bounds how far a detected event's completion may
// sit from the true one and still match.
const handoffMatchWindowUS = 2_000_000

// ScoreHandoffs matches detected events to ground truth by client, target
// AP and completion time (each event consumed at most once).
func ScoreHandoffs(truth []scenario.Handoff, rep *RoamingReport) HandoffScore {
	sc := HandoffScore{Events: len(rep.Events)}
	used := make([]bool, len(rep.Events))
	var errSum int64
	for _, h := range truth {
		if !h.Completed {
			continue
		}
		sc.Truth++
		bestI, bestErr := -1, int64(handoffMatchWindowUS)
		for i, e := range rep.Events {
			if used[i] || e.Client != h.Client || e.ToAP != h.ToAP {
				continue
			}
			err := e.EndUS - h.CompleteUS
			if err < 0 {
				err = -err
			}
			if err <= bestErr {
				bestI, bestErr = i, err
			}
		}
		if bestI >= 0 {
			used[bestI] = true
			sc.Matched++
			errSum += bestErr
		}
	}
	if sc.Truth > 0 {
		sc.Recall = float64(sc.Matched) / float64(sc.Truth)
	}
	if sc.Matched > 0 {
		sc.MeanAbsEndErrUS = float64(errSum) / float64(sc.Matched)
	}
	return sc
}

// RoamDisruption summarizes what handoffs did to one congestion-control
// algorithm's flows at the mobile clients.
type RoamDisruption struct {
	Algo  string
	Flows int // ground-truth flows at mobile clients
	// Disrupted counts flows whose lifetime spans at least one of their
	// client's handoff gaps; Gaps counts flow-handoff intersections.
	Disrupted int
	Gaps      int
	// MeanStallUS is the mean handoff gap (decision to reassociation)
	// experienced by disrupted flows.
	MeanStallUS float64
	// GoodputBps is the algorithm's acknowledged-byte rate over the day,
	// mobile clients only — the "goodput under motion" column.
	GoodputBps float64
}

// RoamDisruptionByCC joins per-flow CC ground truth with handoff ground
// truth: which algorithms' flows were moving, and what the handoffs cost.
func RoamDisruptionByCC(out *scenario.Output) []RoamDisruption {
	mobile := make(map[uint32]dot80211.MAC) // client IP → MAC
	mobileSet := make(map[dot80211.MAC]bool)
	for _, m := range out.MobileMACs {
		mobileSet[m] = true
	}
	for _, c := range out.Clients {
		if mobileSet[c.MAC] {
			mobile[c.IP] = c.MAC
		}
	}
	byClient := make(map[dot80211.MAC][]scenario.Handoff)
	for _, h := range out.Handoffs {
		byClient[h.Client] = append(byClient[h.Client], h)
	}

	rows := make(map[string]*RoamDisruption)
	daySec := out.Cfg.Day.SecondsF()
	for _, f := range out.FlowCCs {
		mac, ok := mobile[f.ClientIP]
		if !ok {
			continue
		}
		r := rows[f.Algo]
		if r == nil {
			r = &RoamDisruption{Algo: f.Algo}
			rows[f.Algo] = r
		}
		r.Flows++
		if daySec > 0 {
			r.GoodputBps += 8 * float64(f.BytesAcked) / daySec
		}
		var stall int64
		gaps := 0
		for _, h := range byClient[mac] {
			end := h.CompleteUS
			if !h.Completed {
				end = h.DecideUS
			}
			if h.DecideUS < f.EndUS && end > f.StartUS {
				gaps++
				stall += end - h.DecideUS
			}
		}
		if gaps > 0 {
			r.Disrupted++
			r.Gaps += gaps
			r.MeanStallUS += float64(stall) / float64(gaps)
		}
	}
	out2 := make([]RoamDisruption, 0, len(rows))
	for _, r := range rows {
		if r.Disrupted > 0 {
			r.MeanStallUS /= float64(r.Disrupted)
		}
		out2 = append(out2, *r)
	}
	sort.Slice(out2, func(i, j int) bool { return out2[i].Algo < out2[j].Algo })
	return out2
}

// RoamingTable renders the detector report plus the per-CC disruption rows
// as aligned text (the jigsim log format). rep may be nil when only the
// ground-truth disruption rows are wanted.
func RoamingTable(rep *RoamingReport, rows []RoamDisruption) string {
	var b strings.Builder
	if rep != nil {
		fmt.Fprintf(&b, "handoffs detected: %d (%d stations, %d data-only), mean latency %.1f ms\n",
			len(rep.Events), len(rep.PerClient), rep.DataOnly, rep.MeanLatencyUS/1e3)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-8s %6s %10s %6s %12s %12s\n",
			"cc", "flows", "disrupted", "gaps", "stall_ms", "goodput")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-8s %6d %10d %6d %12.1f %9.2f Mbps\n",
				r.Algo, r.Flows, r.Disrupted, r.Gaps, r.MeanStallUS/1e3, r.GoodputBps/1e6)
		}
	}
	return b.String()
}
