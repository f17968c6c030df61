// Package transport reconstructs TCP flows from frame exchanges (§5.2) in
// the style of Jaiswal et al.'s passive analysis, adapted for the two
// ambiguities of the wireless vantage point:
//
//  1. A frame exchange's delivery can be unknown (no ACK captured). TCP is
//     the oracle: a later acknowledgment covering the segment's sequence
//     space proves the link-layer frame was delivered.
//  2. Monitors are not lossless. A TCP acknowledgment covering a sequence
//     hole — bytes never observed as data on the air — reveals packets that
//     were delivered but missed by every monitor.
//
// The package also classifies TCP-visible losses as wireless (the segment's
// 802.11 exchange failed) or wired (the exchange succeeded yet TCP
// retransmitted), which drives Figure 11.
//
// The analyzer's state grows with sequence numbers, not with observed
// segments. Per direction it holds one entry per TCP sequence number (the
// MAC seqs seen carrying it, its transmission count and its first
// transmission's delivery), the merged byte coverage and the sends whose
// delivery is still unresolved; per flow, four loss counters.
package transport

import (
	"cmp"
	"sort"

	"repro/internal/llc"
	"repro/internal/tcpwire"
)

// LossKind classifies a TCP retransmission's cause.
type LossKind uint8

// Loss kinds.
const (
	LossUnknown  LossKind = iota
	LossWireless          // the original segment's frame exchange failed
	LossWired             // frame exchange delivered; loss was beyond the air
)

// interval is a half-open byte range [lo, hi) of TCP sequence space.
type interval struct{ lo, hi uint32 }

// seqState is everything a direction tracks per TCP sequence number. One
// compact map entry replaces what used to be three parallel maps (count,
// MAC-seq set, first observation): at building scale the analyzer holds
// one of these per data segment for the whole run, so per-entry overhead
// is a first-order term in the streaming pipeline's working set.
type seqState struct {
	// macSeqs records the 802.11 sequence numbers already seen carrying
	// this TCP seq: a reappearance with the same MAC seq is a duplicate
	// observation of the same frame exchange (monitor artifacts), while a
	// new MAC seq is a genuine TCP retransmission. This cross-layer check
	// is exactly the kind the unified trace makes possible (§5.2).
	// Almost always 1-2 entries, so a tiny slice beats a map.
	macSeqs []uint16
	count   int32 // distinct transmissions (rtx detection)
	// firstDelivery is the link-layer verdict on the first transmission;
	// firstResolved is set when a covering ACK proved an unknown or failed
	// first transmission delivered. Together they classify every later
	// retransmission's loss.
	firstDelivery llc.Delivery
	firstResolved bool
}

// pendingSend is a data transmission whose delivery is unresolved, awaiting
// a covering ACK.
type pendingSend struct {
	seq, seqEnd uint32
	rtx         bool // a retransmission: no firstResolved
}

// dirState tracks one direction (identified by source IP) of a flow.
type dirState struct {
	iss        uint32
	sawSyn     bool
	observed   []interval // merged data coverage observed on the air
	maxAckSeen uint32     // highest cumulative ACK sent BY this direction
	ackValid   bool
	// pendingUnknown holds data transmissions with unresolved delivery,
	// awaiting covering-ACK resolution.
	pendingUnknown []pendingSend
	seqs           map[uint32]seqState
	omittedBytes   int64 // sequence holes covered by ACKs: monitor misses
}

// Flow is a reconstructed TCP connection.
type Flow struct {
	Key tcpwire.FlowKey
	// HandshakeComplete: SYN and SYN|ACK both observed (§7.4 keeps only
	// such flows, eliminating scans and connection failures).
	HandshakeComplete bool
	FirstUS, LastUS   int64

	// Fig. 11's per-flow counters: distinct data transmissions (duplicate
	// observations of one MAC frame count once), retransmissions (losses)
	// and their wireless/wired split.
	dataSegs, losses, wirelessLosses, wiredLosses int

	synSeen, synAckSeen bool
	dirs                map[uint32]*dirState
}

// dir returns (creating) the direction state for a source IP.
func (f *Flow) dir(ip uint32) *dirState {
	d := f.dirs[ip]
	if d == nil {
		d = &dirState{seqs: make(map[uint32]seqState)}
		f.dirs[ip] = d
	}
	return d
}

// Stats aggregates analyzer-level counters.
type Stats struct {
	Exchanges        int64
	TCPSegments      int64
	NonTCP           int64
	Flows            int64
	CompleteFlows    int64
	ResolvedByOracle int64 // unknown deliveries proven by covering ACKs
	MonitorOmissions int64 // segments inferred delivered but never captured
	Retransmissions  int64
	WirelessLosses   int64
	WiredLosses      int64
}

// Analyzer consumes frame exchanges and reconstructs flows.
type Analyzer struct {
	Stats Stats
	flows map[tcpwire.FlowKey]*Flow
}

// NewAnalyzer creates an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{flows: make(map[tcpwire.FlowKey]*Flow)}
}

// flowKeyLess orders flow keys for deterministic report output.
func flowKeyLess(a, b tcpwire.FlowKey) bool {
	return cmp.Or(cmp.Compare(a.IPLo, b.IPLo), cmp.Compare(a.IPHi, b.IPHi),
		cmp.Compare(a.PortLo, b.PortLo), cmp.Compare(a.PortHi, b.PortHi)) < 0
}

// AddExchange feeds one frame exchange; non-TCP payloads are counted and
// skipped. Exchanges must arrive in (approximately) time order.
func (a *Analyzer) AddExchange(ex *llc.Exchange) {
	a.Stats.Exchanges++
	data := ex.Data()
	if data == nil || len(data.Frame.Body) == 0 {
		return
	}
	seg, err := tcpwire.DecodeSegment(data.Frame.Body)
	if err != nil {
		a.Stats.NonTCP++
		return
	}
	a.Stats.TCPSegments++

	key := seg.Key()
	f := a.flows[key]
	if f == nil {
		f = &Flow{Key: key, FirstUS: ex.StartUS, dirs: make(map[uint32]*dirState)}
		a.flows[key] = f
		a.Stats.Flows++
	}
	f.LastUS = ex.EndUS

	d := f.dir(seg.SrcIP)
	if seg.IsSYN() {
		d.sawSyn = true
		d.iss = seg.Seq
		if seg.IsACK() {
			f.synAckSeen = true
		} else {
			f.synSeen = true
		}
		if f.synSeen && f.synAckSeen && !f.HandshakeComplete {
			f.HandshakeComplete = true
			a.Stats.CompleteFlows++
		}
	}

	if seg.PayloadLen > 0 {
		a.observeData(f, d, &seg, ex)
	}
	if seg.IsACK() && !seg.IsSYN() {
		a.observeAck(f, d, &seg)
	}
}

// observeData records data coverage, detects retransmissions and tracks
// unresolved deliveries for seg, carried by exchange ex.
func (a *Analyzer) observeData(f *Flow, d *dirState, seg *tcpwire.Segment, ex *llc.Exchange) {
	st := d.seqs[seg.Seq]
	for _, ms := range st.macSeqs {
		if ms == ex.Seq {
			// Duplicate observation of a transmission already accounted
			// for (the same MAC frame surfacing twice in the merged
			// trace); it is not a TCP event.
			return
		}
	}
	st.macSeqs = append(st.macSeqs, ex.Seq)
	f.dataSegs++
	rtx := st.count > 0
	if rtx {
		a.Stats.Retransmissions++
		f.losses++
		switch st.lossOfFirst() {
		case LossWireless:
			a.Stats.WirelessLosses++
			f.wirelessLosses++
		case LossWired:
			a.Stats.WiredLosses++
			f.wiredLosses++
		}
	} else {
		st.firstDelivery = ex.Delivery
	}
	st.count++
	d.seqs[seg.Seq] = st
	d.observed = addInterval(d.observed, seg.Seq, seg.Seq+uint32(seg.PayloadLen))

	// Track exchanges whose delivery is unknown for oracle resolution.
	switch ex.Delivery {
	case llc.DeliveryUnknown, llc.DeliveryFailed:
		d.pendingUnknown = append(d.pendingUnknown, pendingSend{
			seq: seg.Seq, seqEnd: seg.SeqEnd(), rtx: rtx,
		})
	}
}

// lossOfFirst decides what lost the sequence's first transmission.
func (st *seqState) lossOfFirst() LossKind {
	switch st.firstDelivery {
	case llc.DeliveryObserved, llc.DeliveryInferred:
		return LossWired
	case llc.DeliveryFailed:
		return LossWireless
	case llc.DeliveryUnknown:
		if st.firstResolved {
			return LossWired
		}
		return LossWireless
	}
	return LossUnknown
}

// observeAck applies the TCP oracle: a cumulative ACK from direction d
// covers sequence space of the opposite direction. seg is the ACK.
func (a *Analyzer) observeAck(f *Flow, d *dirState, seg *tcpwire.Segment) {
	ackVal := seg.Ack
	if d.ackValid && !tcpwire.SeqLess(d.maxAckSeen, ackVal) {
		return // not a new high-water mark
	}
	d.maxAckSeen = ackVal
	d.ackValid = true

	// Opposite direction: the data being covered.
	od := f.dir(seg.DstIP)

	// 1. Resolve unknown deliveries (§5.2: "observing a covering TCP ACK
	// proves that the link-layer frame containing the associated data was
	// actually delivered").
	keep := od.pendingUnknown[:0]
	for _, p := range od.pendingUnknown {
		if tcpwire.SeqLEQ(p.seqEnd, ackVal) {
			a.Stats.ResolvedByOracle++
			// A resolved first transmission turns a later retransmission of
			// its seq into a wired loss.
			if !p.rtx {
				st := od.seqs[p.seq]
				st.firstResolved = true
				od.seqs[p.seq] = st
			}
		} else {
			keep = append(keep, p)
		}
	}
	od.pendingUnknown = keep

	// 2. Monitor omissions: ACK-covered bytes never observed as data.
	if od.sawSyn {
		covered := coveredBytes(od.observed, od.iss+1, ackVal)
		want := int64(ackVal - (od.iss + 1))
		if want > 0 && covered < want {
			missing := want - covered - od.omittedBytes
			if missing > 0 {
				od.omittedBytes += missing
				a.Stats.MonitorOmissions += (missing + tcpwire.MSS - 1) / tcpwire.MSS
			}
		}
	}
}

// addInterval merges [lo,hi) into a sorted interval set.
func addInterval(set []interval, lo, hi uint32) []interval {
	if lo == hi {
		return set
	}
	set = append(set, interval{lo, hi})
	sort.Slice(set, func(i, j int) bool { return tcpwire.SeqLess(set[i].lo, set[j].lo) })
	out := set[:1]
	for _, iv := range set[1:] {
		lastIdx := len(out) - 1
		if tcpwire.SeqLEQ(iv.lo, out[lastIdx].hi) {
			if tcpwire.SeqLess(out[lastIdx].hi, iv.hi) {
				out[lastIdx].hi = iv.hi
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// coveredBytes counts observed bytes within [lo, hi).
func coveredBytes(set []interval, lo, hi uint32) int64 {
	var total int64
	for _, iv := range set {
		s, e := iv.lo, iv.hi
		if tcpwire.SeqLess(s, lo) {
			s = lo
		}
		if tcpwire.SeqLess(hi, e) {
			e = hi
		}
		if tcpwire.SeqLess(s, e) {
			total += int64(e - s)
		}
	}
	return total
}

// Flows returns reconstructed flows sorted by first observation time.
func (a *Analyzer) Flows() []*Flow {
	out := make([]*Flow, 0, len(a.flows))
	for _, f := range a.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FirstUS != out[j].FirstUS {
			return out[i].FirstUS < out[j].FirstUS
		}
		return flowKeyLess(out[i].Key, out[j].Key)
	})
	return out
}

// FlowLossRate summarizes one flow's TCP loss rate and its split, over
// handshake-complete flows (Fig. 11's metric).
type FlowLossRate struct {
	Key          tcpwire.FlowKey
	DataSegs     int
	Losses       int
	WirelessLoss int
	WiredLoss    int
	LossRate     float64
}

// LossRates computes per-flow loss rates over handshake-complete flows with
// at least minSegs data segments.
func (a *Analyzer) LossRates(minSegs int) []FlowLossRate {
	var out []FlowLossRate
	for _, f := range a.flows {
		if !f.HandshakeComplete {
			continue
		}
		r := FlowLossRate{
			Key: f.Key, DataSegs: f.dataSegs, Losses: f.losses,
			WirelessLoss: f.wirelessLosses, WiredLoss: f.wiredLosses,
		}
		if r.DataSegs < minSegs {
			continue
		}
		r.LossRate = float64(r.Losses) / float64(r.DataSegs)
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LossRate != out[j].LossRate {
			return out[i].LossRate < out[j].LossRate
		}
		return flowKeyLess(out[i].Key, out[j].Key)
	})
	return out
}
