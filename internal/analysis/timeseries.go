package analysis

import (
	"repro/internal/dot80211"
	"repro/internal/unify"
)

// ActivitySlot is one time bucket of Fig. 8: active stations and the
// traffic split.
type ActivitySlot struct {
	StartUS       int64
	ActiveClients int
	ActiveAPs     int
	DataBytes     int64 // unicast + broadcast data
	MgmtBytes     int64 // management/control excluding beacons (ACK, assoc…)
	BeaconBytes   int64
	ARPBytes      int64 // broadcast ARP traffic (the Vernier pathology)
	// BroadcastAirtimeUS measures the channel time consumed by broadcast
	// frames (paper: ~10% of any monitor's channel view).
	BroadcastAirtimeUS int64
	TotalAirtimeUS     int64
}

// activity tracks the distinct stations communicating within a slot.
type activity struct {
	clients map[dot80211.MAC]bool
	aps     map[dot80211.MAC]bool
}

// TimeSeriesPass builds Fig. 8 incrementally from the jframe stream:
// per-slot active clients and APs (active = communicating, not merely
// beaconing; an AP only sending beacons is not active) and the byte split
// into Data / Management / Beacon / ARP categories. Memory is O(slots ×
// stations active per slot), independent of trace length.
type TimeSeriesPass struct {
	named
	noExchange
	slotUS  int64
	started bool
	startUS int64 // first jframe in stream order anchors slot 0
	lastUS  int64 // last jframe in stream order bounds the slot count
	slots   []ActivitySlot
	acts    []activity
}

// NewTimeSeriesPass buckets activity into slotUS-wide slots.
func NewTimeSeriesPass(slotUS int64) *TimeSeriesPass {
	return &TimeSeriesPass{named: "timeseries", slotUS: slotUS}
}

// grow extends the slot arrays through index idx.
func (p *TimeSeriesPass) grow(idx int) {
	for len(p.slots) <= idx {
		i := len(p.slots)
		p.slots = append(p.slots, ActivitySlot{StartUS: p.startUS + int64(i)*p.slotUS})
		p.acts = append(p.acts, activity{clients: map[dot80211.MAC]bool{}, aps: map[dot80211.MAC]bool{}})
	}
}

// ObserveJFrame implements Pass.
func (p *TimeSeriesPass) ObserveJFrame(j *unify.JFrame) {
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
	idx := int((j.UnivUS - p.startUS) / p.slotUS)
	if idx < 0 {
		return
	}
	p.grow(idx)
	s, a := &p.slots[idx], &p.acts[idx]
	f := &j.Frame
	n := int64(j.WireLen)
	if n == 0 {
		n = int64(len(j.Wire))
	}
	air := j.AirtimeUS()
	s.TotalAirtimeUS += air
	if f.Addr1.IsMulticast() {
		s.BroadcastAirtimeUS += air
	}
	switch {
	case f.IsBeacon():
		s.BeaconBytes += n
	case f.IsData():
		if isARP(f.Body) {
			s.ARPBytes += n
		} else {
			s.DataBytes += n
		}
		// The DS bits separate AP from client transmissions.
		switch {
		case f.Flags&dot80211.FlagFromDS != 0:
			a.aps[f.Addr2] = true
			if !f.Addr1.IsMulticast() {
				a.clients[f.Addr1] = true
			}
		case f.Flags&dot80211.FlagToDS != 0:
			a.clients[f.Addr2] = true
			a.aps[f.Addr1] = true
		default:
			a.clients[f.Addr2] = true
		}
	default:
		s.MgmtBytes += n
		// Association activity also marks a client active.
		if f.Type == dot80211.TypeManagement &&
			(f.Subtype == dot80211.SubtypeAssocReq || f.Subtype == dot80211.SubtypeAuth) {
			a.clients[f.Addr2] = true
		}
	}
}

// Finalize implements Pass, returning []ActivitySlot.
func (p *TimeSeriesPass) Finalize() Report {
	if p.slotUS <= 0 || !p.started {
		return []ActivitySlot(nil)
	}
	// The last jframe, the latest in the time-ordered stream, bounds the
	// series, exactly as the slice-based construction sized its slot array.
	nSlots := int((p.lastUS-p.startUS)/p.slotUS) + 1
	if nSlots < 0 {
		nSlots = 0
	}
	p.grow(nSlots - 1)
	slots := p.slots[:nSlots]
	for i := range slots {
		slots[i].ActiveClients = len(p.acts[i].clients)
		slots[i].ActiveAPs = len(p.acts[i].aps)
	}
	return slots
}

// isARP recognizes the broadcast ARP payloads in the trace.
func isARP(body []byte) bool {
	return len(body) >= 3 && body[0] == 'A' && body[1] == 'R' && body[2] == 'P'
}

// BroadcastAirtimeShare aggregates the broadcast share of airtime across a
// series (paper: broadcast traffic regularly consumes 10% of the channel).
func BroadcastAirtimeShare(slots []ActivitySlot) float64 {
	var bc, tot int64
	for _, s := range slots {
		bc += s.BroadcastAirtimeUS
		tot += s.TotalAirtimeUS
	}
	if tot == 0 {
		return 0
	}
	return float64(bc) / float64(tot)
}
