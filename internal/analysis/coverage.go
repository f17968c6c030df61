package analysis

import (
	"bytes"
	"sort"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/tcpwire"
	"repro/internal/tracefile"
)

// segIdentity keys a TCP packet for wired↔wireless matching: the flow, the
// direction, the sequence position and the flags identify one packet
// (retransmissions repeat the identity; matching is by multiset).
type segIdentity struct {
	key     tcpwire.FlowKey
	srcIP   uint32
	seq     uint32
	payload uint16
	flags   uint8
}

func identityOf(seg tcpwire.Segment) segIdentity {
	return segIdentity{
		key: seg.Key(), srcIP: seg.SrcIP, seq: seg.Seq,
		payload: seg.PayloadLen, flags: seg.Flags,
	}
}

// StationCoverage is one station's wired-vs-wireless coverage (Fig. 6).
type StationCoverage struct {
	MAC      dot80211.MAC
	IsAP     bool
	Packets  int // wired packets attributable to this transmitter
	Captured int // of those, also present in the unified wireless trace
}

// Fraction returns captured/packets.
func (s StationCoverage) Fraction() float64 {
	if s.Packets == 0 {
		return 1
	}
	return float64(s.Captured) / float64(s.Packets)
}

// CoverageReport reproduces §6's wired-trace comparison and Fig. 6.
type CoverageReport struct {
	Overall    float64 // fraction of wired packets seen wirelessly (97% in the paper)
	TotalWired int
	Stations   []StationCoverage

	// Fig. 6 summary lines.
	ClientsAt100, APsAt100   float64 // fraction of stations with 100% coverage
	ClientsOver95, APsOver95 float64 // fraction with ≥95%
	ClientCoverage           float64 // aggregate over client-transmitted packets
	APCoverage               float64 // aggregate over AP-transmitted packets
}

// CoveragePass accumulates the wireless trace's segment-identity multiset
// incrementally from the exchange stream; Finalize matches it against the
// wired tap.
type CoveragePass struct {
	named
	noJFrame
	out  *scenario.Output
	seen map[segIdentity]int
}

// NewCoveragePass builds the §6 coverage pass over the run's ground truth.
func NewCoveragePass(out *scenario.Output) *CoveragePass {
	return &CoveragePass{named: "coverage", out: out, seen: make(map[segIdentity]int)}
}

// ObserveExchange implements Pass: it records the exchange's TCP segment
// identity, if any.
func (p *CoveragePass) ObserveExchange(ex *llc.Exchange) {
	data := ex.Data()
	if data == nil {
		return
	}
	seg, err := tcpwire.DecodeSegment(data.Frame.Body)
	if err != nil {
		return
	}
	p.seen[identityOf(seg)]++
}

// Finalize implements Pass, returning the *CoverageReport.
func (p *CoveragePass) Finalize() Report {
	out, seen := p.out, p.seen
	clientAP := make(map[dot80211.MAC]dot80211.MAC, len(out.Clients))
	clientByIP := make(map[uint32]dot80211.MAC, len(out.Clients))
	for _, c := range out.Clients {
		clientAP[c.MAC] = out.APs[c.APIndex].MAC
		clientByIP[c.IP] = c.MAC
	}

	perStation := make(map[dot80211.MAC]*StationCoverage)
	get := func(mac dot80211.MAC, isAP bool) *StationCoverage {
		sc := perStation[mac]
		if sc == nil {
			sc = &StationCoverage{MAC: mac, IsAP: isAP}
			perStation[mac] = sc
		}
		return sc
	}

	rep := &CoverageReport{}
	for _, wp := range out.Wired {
		var tx dot80211.MAC
		var isAP bool
		if wp.Downlink {
			// Only packets the AP actually received (and hence
			// transmitted on the air) count.
			if !wp.Delivered {
				continue
			}
			ap, ok := clientAP[wp.Dst]
			if !ok {
				continue
			}
			tx, isAP = ap, true
		} else {
			cm, ok := clientByIP[wp.Seg.SrcIP]
			if !ok {
				continue
			}
			tx, isAP = cm, false
		}
		sc := get(tx, isAP)
		sc.Packets++
		rep.TotalWired++
		id := identityOf(wp.Seg)
		if seen[id] > 0 {
			seen[id]--
			sc.Captured++
		}
	}

	var capTotal, cliPk, cliCap, apPk, apCap int
	var cli100, cliOver95, cliN, ap100, apOver95, apN int
	for _, sc := range perStation {
		rep.Stations = append(rep.Stations, *sc)
		capTotal += sc.Captured
		f := sc.Fraction()
		if sc.IsAP {
			apPk += sc.Packets
			apCap += sc.Captured
			apN++
			if f >= 1 {
				ap100++
			}
			if f >= 0.95 {
				apOver95++
			}
		} else {
			cliPk += sc.Packets
			cliCap += sc.Captured
			cliN++
			if f >= 1 {
				cli100++
			}
			if f >= 0.95 {
				cliOver95++
			}
		}
	}
	sort.Slice(rep.Stations, func(i, j int) bool {
		fi, fj := rep.Stations[i].Fraction(), rep.Stations[j].Fraction()
		if fi != fj {
			return fi < fj
		}
		// Total order: map iteration fed the slice, so ties (common at
		// 100% coverage) need a deterministic break.
		return bytes.Compare(rep.Stations[i].MAC[:], rep.Stations[j].MAC[:]) < 0
	})
	if rep.TotalWired > 0 {
		rep.Overall = float64(capTotal) / float64(rep.TotalWired)
	}
	if cliN > 0 {
		rep.ClientsAt100 = float64(cli100) / float64(cliN)
		rep.ClientsOver95 = float64(cliOver95) / float64(cliN)
	}
	if apN > 0 {
		rep.APsAt100 = float64(ap100) / float64(apN)
		rep.APsOver95 = float64(apOver95) / float64(apN)
	}
	if cliPk > 0 {
		rep.ClientCoverage = float64(cliCap) / float64(cliPk)
	}
	if apPk > 0 {
		rep.APCoverage = float64(apCap) / float64(apPk)
	}
	return rep
}

// OracleCoverage reproduces the §6 controlled experiment: the simulator's
// ground truth is the oracle that knows every link-level event each station
// generated; coverage is the fraction captured by at least one monitor
// (95% in the paper). Returns overall coverage over client-generated
// transmissions and the per-client breakdown.
func OracleCoverage(out *scenario.Output) (float64, map[dot80211.MAC]float64) {
	type cnt struct{ tx, cap int }
	per := make(map[dot80211.MAC]*cnt)
	clients := make(map[dot80211.MAC]bool, len(out.Clients))
	for _, c := range out.Clients {
		clients[c.MAC] = true
		per[c.MAC] = &cnt{}
	}
	var tot, cap_ int
	for _, tx := range out.Truth {
		if tx.Kind == scenario.TxNoise || !clients[tx.SrcMAC] {
			continue
		}
		c := per[tx.SrcMAC]
		c.tx++
		tot++
		if out.CapturedAny[tx.ID] > 0 {
			c.cap++
			cap_++
		}
	}
	frac := make(map[dot80211.MAC]float64, len(per))
	for m, c := range per {
		if c.tx > 0 {
			frac[m] = float64(c.cap) / float64(c.tx)
		}
	}
	if tot == 0 {
		return 0, frac
	}
	return float64(cap_) / float64(tot), frac
}

// PodCoverage is one row of Fig. 7: coverage with a reduced pod set.
type PodCoverage struct {
	Pods           int
	Radios         int
	Synced         bool // false when the sync bootstrap partitioned (10 pods)
	APCoverage     float64
	ClientCoverage float64
	Overall        float64
}

// PodSweep reproduces Fig. 7: rerun the whole pipeline on reduced pod
// subsets (removed by the building's visual-redundancy rule) and measure
// the wired-trace coverage of each configuration.
func PodSweep(out *scenario.Output, podCounts []int) ([]PodCoverage, error) {
	var rows []PodCoverage
	for _, n := range podCounts {
		reduced := out.Building.ReducePods(n)
		keep := make(map[int32]bool)
		for _, pod := range reduced.Pods {
			for _, r := range pod.Radios {
				keep[int32(r)] = true
			}
		}
		traces := make(map[int32][]byte)
		for rid, buf := range out.Traces {
			if keep[rid] {
				traces[rid] = buf.Bytes()
			}
		}
		var groups [][]int32
		for _, g := range out.ClockGroups {
			if keep[g[0]] {
				groups = append(groups, g)
			}
		}
		cfg := core.DefaultConfig()
		covPass := NewCoveragePass(out)
		cfg.Passes = []core.Pass{covPass}
		res, err := core.RunFrom(tracefile.NewBufferSet(traces), groups, cfg, nil)
		if err != nil {
			return rows, err
		}
		cov := covPass.Finalize().(*CoverageReport)
		rows = append(rows, PodCoverage{
			Pods: len(reduced.Pods), Radios: len(traces),
			Synced:     res.Bootstrap.Synced(),
			APCoverage: cov.APCoverage, ClientCoverage: cov.ClientCoverage,
			Overall: cov.Overall,
		})
	}
	return rows, nil
}

// RoamingOracleCoverage measures the §6 controlled experiment directly:
// the fraction of the roaming oracle client's link-level transmissions that
// the monitoring platform captured (the paper reports 95%). Returns -1 if
// the scenario ran without an oracle client.
func RoamingOracleCoverage(out *scenario.Output) float64 {
	if out.OracleMAC.IsZero() {
		return -1
	}
	var tx, captured int
	for _, t := range out.Truth {
		if t.SrcMAC != out.OracleMAC {
			continue
		}
		tx++
		if out.CapturedAny[t.ID] > 0 {
			captured++
		}
	}
	if tx == 0 {
		return 0
	}
	return float64(captured) / float64(tx)
}
