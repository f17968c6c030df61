package analysis

import (
	"bytes"
	"math"
	"sort"

	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/unify"
)

// PairStats accumulates the §7.2 counters for one (sender, receiver) pair:
//
//	n   transmissions, n0 without / nx with a simultaneous transmission,
//	nl0 and nlx of them lost.
type PairStats struct {
	S, R                dot80211.MAC
	N, N0, NL0, NX, NLX int
}

// Pi computes the conditional probability that a simultaneous transmission
// causes interference, normalized by the background loss rate:
//
//	Pi = [(nlx/nx) − (nl0/n0)] / (1 − nl0/n0)
func (p *PairStats) Pi() float64 {
	if p.NX == 0 || p.N0 == 0 {
		return 0
	}
	bg := float64(p.NL0) / float64(p.N0)
	if bg >= 1 {
		return 0
	}
	return (float64(p.NLX)/float64(p.NX) - bg) / (1 - bg)
}

// X is the interference loss rate: the probability that any transmission
// from s to r is lost due to interference: X = Pi · (nx/n). Negative Pi is
// truncated to zero, as in the paper (11% of pairs there).
func (p *PairStats) X() float64 {
	pi := p.Pi()
	if pi < 0 || p.N == 0 {
		return 0
	}
	return pi * float64(p.NX) / float64(p.N)
}

// BackgroundLossRate is nl0/n0.
func (p *PairStats) BackgroundLossRate() float64 {
	if p.N0 == 0 {
		return 0
	}
	return float64(p.NL0) / float64(p.N0)
}

// InterferenceReport reproduces Fig. 9 and the §7.2 headline numbers.
type InterferenceReport struct {
	Pairs []PairStats // pairs with ≥ MinPackets transmissions
	// PairsConsidered counts all (s,r) pairs before the threshold.
	PairsConsidered int
	// FractionWithInterference is the share of qualifying pairs with
	// positive Pi (paper: 88%).
	FractionWithInterference float64
	// NegativePiFraction is the share with negative Pi, truncated (11%).
	NegativePiFraction float64
	// AvgBackgroundLoss is the mean background transmission loss rate
	// (paper: 0.12).
	AvgBackgroundLoss float64
	// SenderSplitAP is the fraction of interfered pairs whose sender is an
	// AP (paper: 56% APs / 44% clients).
	SenderSplitAP float64
	// XCDF is the sorted interference loss rate across pairs (the Fig. 9
	// curve).
	XCDF []float64
}

// InterferencePass estimates co-channel interference from the unified
// trace (§7.2), incrementally. The jframe stream maintains a sliding
// per-channel interval window (overlapIndex); each exchange — deferred
// until the jframe frontier guarantees the window is complete around its
// attempts — decides, per unicast DATA attempt, (a) whether another
// transmission overlapped it in time on the same channel and (b) whether
// it was lost, aggregating the conditional-probability estimate per (s,r)
// pair. State is O(pairs + window), the window about 1 s (see retire).
type InterferencePass struct {
	named
	minPackets int
	isAP       func(dot80211.MAC) bool
	idx        overlapIndex
	pending    exchangeDeferral
	pairs      map[[2]dot80211.MAC]*PairStats
}

// NewInterferencePass builds the §7.2 pass. minPackets is the per-pair
// transmission floor; isAP classifies senders for the AP/client split (nil
// disables it).
func NewInterferencePass(minPackets int, isAP func(dot80211.MAC) bool) *InterferencePass {
	return &InterferencePass{
		named: "interference", minPackets: minPackets, isAP: isAP,
		pairs: make(map[[2]dot80211.MAC]*PairStats),
	}
}

// ObserveJFrame implements Pass: index the transmission interval (every
// non-phy-error event, decodable or not, occupies air) and advance the
// deferral frontier.
func (p *InterferencePass) ObserveJFrame(j *unify.JFrame) {
	p.pending.noteJFrame(j.UnivUS)
	if !j.PhyOnly {
		s, e := frameInterval(j)
		p.idx.add(j.Channel, s, e)
	}
	p.pending.flush(p.process)
}

// ObserveExchange implements Pass.
func (p *InterferencePass) ObserveExchange(ex *llc.Exchange) {
	p.pending.push(ex)
	p.pending.flush(p.process)
}

// process scores one exchange's attempts once the interval window is
// complete around them.
func (p *InterferencePass) process(ex *llc.Exchange) {
	p.idx.retire(ex.CloseUS)
	if ex.Broadcast {
		return
	}
	for ai, at := range ex.Attempts {
		if at.Data == nil || !at.Data.Frame.IsUnicastData() {
			continue
		}
		key := [2]dot80211.MAC{at.Transmitter, at.Receiver}
		ps := p.pairs[key]
		if ps == nil {
			ps = &PairStats{S: at.Transmitter, R: at.Receiver}
			p.pairs[key] = ps
		}
		simultaneous := p.idx.overlapping(at.Data.Channel, at.Data.UnivUS, at.Data.EndUS())
		// A transmission attempt was lost if it drew a retransmission
		// (it was not the final attempt) or the final attempt shows no
		// delivery evidence.
		lost := !at.Acked()
		if ai == len(ex.Attempts)-1 {
			switch ex.Delivery {
			case llc.DeliveryObserved, llc.DeliveryInferred:
				lost = false
			}
		}
		ps.N++
		if simultaneous {
			ps.NX++
			if lost {
				ps.NLX++
			}
		} else {
			ps.N0++
			if lost {
				ps.NL0++
			}
		}
	}
}

// Finalize implements Pass, returning the *InterferenceReport.
func (p *InterferencePass) Finalize() Report {
	p.pending.drain(p.process)
	rep := &InterferenceReport{PairsConsidered: len(p.pairs)}
	// Aggregate in sorted key order: the float accumulation below must not
	// depend on map iteration order.
	keys := make([][2]dot80211.MAC, 0, len(p.pairs))
	for k := range p.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := bytes.Compare(keys[i][0][:], keys[j][0][:]); c != 0 {
			return c < 0
		}
		return bytes.Compare(keys[i][1][:], keys[j][1][:]) < 0
	})
	var bgSum float64
	var interfered, negative, apSenders int
	for _, k := range keys {
		ps := p.pairs[k]
		if ps.N < p.minPackets {
			continue
		}
		rep.Pairs = append(rep.Pairs, *ps)
		bgSum += ps.BackgroundLossRate()
		pi := ps.Pi()
		if pi > 0 {
			interfered++
			if p.isAP != nil && p.isAP(ps.S) {
				apSenders++
			}
		} else if pi < 0 {
			negative++
		}
		rep.XCDF = append(rep.XCDF, ps.X())
	}
	sort.Float64s(rep.XCDF)
	sort.Slice(rep.Pairs, func(i, j int) bool {
		xi, xj := rep.Pairs[i].X(), rep.Pairs[j].X()
		if xi != xj {
			return xi < xj
		}
		if c := bytes.Compare(rep.Pairs[i].S[:], rep.Pairs[j].S[:]); c != 0 {
			return c < 0
		}
		return bytes.Compare(rep.Pairs[i].R[:], rep.Pairs[j].R[:]) < 0
	})
	if n := len(rep.Pairs); n > 0 {
		rep.FractionWithInterference = float64(interfered) / float64(n)
		rep.NegativePiFraction = float64(negative) / float64(n)
		rep.AvgBackgroundLoss = bgSum / float64(n)
	}
	if interfered > 0 {
		rep.SenderSplitAP = float64(apSenders) / float64(interfered)
	}
	return rep
}

// XPercentile returns the p-th percentile of the interference loss rate,
// by the nearest-rank rule: the smallest X with at least a p fraction of
// pairs at or below it (rank ⌈p·n⌉, i.e. index ⌈p·n⌉−1).
func (r *InterferenceReport) XPercentile(p float64) float64 {
	n := len(r.XCDF)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return r.XCDF[i]
}
