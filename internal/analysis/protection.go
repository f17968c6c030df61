package analysis

import (
	"repro/internal/dot80211"
	"repro/internal/unify"
)

// ProtectionSlot is one time bucket of Fig. 10.
type ProtectionSlot struct {
	StartUS          int64
	ProtectedAPs     int // APs observed using protection mode
	Overprotective   int // of those, no 802.11b client in range within the practical timeout
	ActiveGClients   int // active 802.11g clients network-wide
	GOnOverprotected int // active g clients associated to overprotective APs
}

// ProtectionReport reproduces §7.3 / Fig. 10.
type ProtectionReport struct {
	Slots []ProtectionSlot
	// PeakAffectedShare is the largest per-slot share of active g clients
	// sitting behind overprotective APs (paper: 25–50% in busy periods).
	PeakAffectedShare float64
	// PotentialSpeedup is footnote 7's bound on the throughput factor a
	// protected g client could regain (≈2x).
	PotentialSpeedup float64
}

// ProtectionPass analyzes 802.11g protection-mode usage from the unified
// trace (§7.3), incrementally. It observes:
//
//   - which stations use protection, from CTS-to-self transmissions (a
//     station's CTS-to-self carries its own MAC) — attributed to their AP
//     at finalize, once beacon/association evidence is complete;
//   - which stations are 802.11b, from the PHY tag clients advertise in
//     probe/association request bodies — the passive analogue of the
//     paper's probe-response range inference;
//   - whether an 802.11b client was in range of each protecting AP within
//     the practical timeout (one minute in the paper), making the AP's
//     conservative policy "overprotective" when not.
//
// Instead of retaining per-event time lists, evidence is quantized to the
// slot grid as it streams: protection and g-activity need only per-slot
// membership, and the b-in-range test over the contiguous window
// [slotStart−timeout, slotEnd) is decided exactly by each slot-bucket's
// latest b-activity time (the window covers whole buckets except a suffix
// of the earliest, where the maximum alone settles containment). Memory is
// O(stations × slots), independent of event count.
type ProtectionPass struct {
	named
	noExchange
	timeoutUS, slotUS int64

	started         bool
	startUS, lastUS int64
	phyOf           map[dot80211.MAC]byte         // 'b' or 'g'
	assoc           map[dot80211.MAC]dot80211.MAC // client → last AP
	apSeen          map[dot80211.MAC]bool
	ctsSlots        map[dot80211.MAC]map[int64]bool  // station → slots with CTS-to-self
	bNearMax        map[dot80211.MAC]map[int64]int64 // AP → slot → latest b-activity time
	gSlot           map[int64]map[dot80211.MAC]bool  // slot → active g clients
}

// NewProtectionPass builds the §7.3 pass: practicalTimeoutUS is how long
// b-client evidence keeps an AP's protection justified, slotUS the Fig. 10
// bucket width.
func NewProtectionPass(practicalTimeoutUS, slotUS int64) *ProtectionPass {
	return &ProtectionPass{
		named: "protection", timeoutUS: practicalTimeoutUS, slotUS: slotUS,
		phyOf:    make(map[dot80211.MAC]byte),
		assoc:    make(map[dot80211.MAC]dot80211.MAC),
		apSeen:   make(map[dot80211.MAC]bool),
		ctsSlots: make(map[dot80211.MAC]map[int64]bool),
		bNearMax: make(map[dot80211.MAC]map[int64]int64),
		gSlot:    make(map[int64]map[dot80211.MAC]bool),
	}
}

// floorDiv is floored integer division (buckets for times before the
// first frame must stay below bucket 0, not truncate onto it).
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ObserveJFrame implements Pass.
func (p *ProtectionPass) ObserveJFrame(j *unify.JFrame) {
	if p.slotUS <= 0 {
		return
	}
	if !p.started {
		p.started = true
		p.startUS = j.UnivUS
	}
	p.lastUS = j.UnivUS
	if !j.Valid {
		return
	}
	f := &j.Frame
	switch {
	case f.IsBeacon():
		p.apSeen[f.Addr2] = true
	case f.Type == dot80211.TypeManagement &&
		(f.Subtype == dot80211.SubtypeProbeReq || f.Subtype == dot80211.SubtypeAssocReq ||
			f.Subtype == dot80211.SubtypeAuth):
		if len(f.Body) > 0 && (f.Body[0] == 'b' || f.Body[0] == 'g') {
			p.phyOf[f.Addr2] = f.Body[0]
		}
		if f.Subtype == dot80211.SubtypeAssocReq {
			p.assoc[f.Addr2] = f.Addr1
		}
	case f.IsCTS():
		// CTS-to-self: RA is the protecting transmitter itself.
		b := floorDiv(j.UnivUS-p.startUS, p.slotUS)
		set := p.ctsSlots[f.Addr1]
		if set == nil {
			set = make(map[int64]bool)
			p.ctsSlots[f.Addr1] = set
		}
		set[b] = true
	case f.IsData():
		tx := f.Addr2
		if p.phyOf[tx] == 'b' {
			// A b client talking to its AP: evidently in range.
			if ap := dataAP(f); !ap.IsZero() {
				b := floorDiv(j.UnivUS-p.startUS, p.slotUS)
				mm := p.bNearMax[ap]
				if mm == nil {
					mm = make(map[int64]int64)
					p.bNearMax[ap] = mm
				}
				if t, ok := mm[b]; !ok || j.UnivUS > t {
					mm[b] = j.UnivUS
				}
			}
		}
		if p.phyOf[tx] == 'g' && f.Flags&dot80211.FlagToDS != 0 {
			// Truncating division, like the legacy slot mapping: activity
			// marginally before the first frame lands in slot 0.
			b := (j.UnivUS - p.startUS) / p.slotUS
			set := p.gSlot[b]
			if set == nil {
				set = make(map[dot80211.MAC]bool)
				p.gSlot[b] = set
			}
			set[tx] = true
		}
	}
}

// Finalize implements Pass, returning the *ProtectionReport.
func (p *ProtectionPass) Finalize() Report {
	rep := &ProtectionReport{PotentialSpeedup: dot80211.ProtectionOverheadFactor()}
	if !p.started || p.slotUS <= 0 {
		return rep
	}
	nSlots := int((p.lastUS-p.startUS)/p.slotUS) + 1
	if nSlots < 0 {
		nSlots = 0
	}

	// Attribute protection evidence to APs: stations emitting CTS-to-self
	// that are APs, plus APs whose associated clients emit CTS-to-self —
	// using the run's complete beacon/association knowledge, exactly as
	// the two-pass construction did.
	protSlots := make(map[dot80211.MAC]map[int64]bool)
	for sta, slots := range p.ctsSlots {
		ap := sta
		if !p.apSeen[sta] {
			a, ok := p.assoc[sta]
			if !ok {
				continue
			}
			ap = a
		}
		dst := protSlots[ap]
		if dst == nil {
			dst = make(map[int64]bool)
			protSlots[ap] = dst
		}
		for b := range slots {
			dst[b] = true
		}
	}

	rep.Slots = make([]ProtectionSlot, nSlots)
	for i := range rep.Slots {
		rep.Slots[i].StartUS = p.startUS + int64(i)*p.slotUS
	}
	for i := range rep.Slots {
		s := &rep.Slots[i]
		overprotective := map[dot80211.MAC]bool{}
		for ap, slots := range protSlots {
			if !slots[int64(i)] {
				continue
			}
			s.ProtectedAPs++
			if !p.bNear(ap, int64(i)) {
				s.Overprotective++
				overprotective[ap] = true
			}
		}
		for c := range p.gSlot[int64(i)] {
			s.ActiveGClients++
			if overprotective[p.assoc[c]] {
				s.GOnOverprotected++
			}
		}
		if s.ActiveGClients > 0 {
			share := float64(s.GOnOverprotected) / float64(s.ActiveGClients)
			if share > rep.PeakAffectedShare {
				rep.PeakAffectedShare = share
			}
		}
	}
	return rep
}

// bNear reports whether any b client was evidently in range of ap within
// [slotStart − timeout, slotEnd): scan the slot buckets the window
// touches; a bucket's latest b-activity time decides containment (the
// window covers every touched bucket fully except the earliest, where it
// is a suffix).
func (p *ProtectionPass) bNear(ap dot80211.MAC, slot int64) bool {
	mm := p.bNearMax[ap]
	if len(mm) == 0 {
		return false
	}
	lowUS := slot*p.slotUS - p.timeoutUS // relative to startUS
	bLow := floorDiv(lowUS, p.slotUS)
	for b := bLow; b <= slot; b++ {
		if t, ok := mm[b]; ok && t >= p.startUS+lowUS {
			return true
		}
	}
	return false
}

// dataAP extracts the AP side of a data frame from its DS bits.
func dataAP(f *dot80211.Frame) dot80211.MAC {
	switch {
	case f.Flags&dot80211.FlagToDS != 0:
		return f.Addr1
	case f.Flags&dot80211.FlagFromDS != 0:
		return f.Addr2
	}
	return dot80211.MAC{}
}
