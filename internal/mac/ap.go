package mac

import (
	"encoding/binary"

	"repro/internal/dot80211"
	"repro/internal/radio"
	"repro/internal/sim"
)

// BeaconInterval is the AP beacon period (the standard's 100 TU = 102.4 ms;
// §4.2 notes beacons bound the gaps between resynchronization chances).
const BeaconInterval = 102400 * sim.Microsecond

// DefaultProtectionTimeout reproduces the deployment's overly conservative
// policy: protection stays on for an hour after the last 802.11b client is
// sensed (§7.3).
const DefaultProtectionTimeout = 3600 * sim.Second

// PracticalProtectionTimeout is the paper's suggested one-minute policy.
const PracticalProtectionTimeout = 60 * sim.Second

// beacon body flag bits (our synthetic IE encoding: TSF + flags + SSID).
const beaconFlagProtection = 0x01

// assocClient is the AP's view of an associated station.
type assocClient struct {
	mac dot80211.MAC
	phy PHYMode
}

// AP is a production access point: a station that beacons, answers probes,
// accepts associations, bridges to the wired distribution network and runs
// the 802.11g protection-mode policy.
type AP struct {
	*Station
	SSID string

	// ToWired is invoked for every uplink data frame an associated client
	// delivers; the scenario's wired network routes it onward.
	ToWired func(src, dst dot80211.MAC, payload []byte)

	// ProtectionTimeout governs how long after last sensing an 802.11b
	// client the AP keeps protection enabled.
	ProtectionTimeout sim.Time

	clients   map[dot80211.MAC]*assocClient
	lastBSeen sim.Time
	sawB      bool
	beaconSeq int

	// Probe responses sent, for the Fig. 10 range inference.
	ProbeResponses int
}

// NewAP creates an access point and starts its beacon schedule.
func NewAP(eng *sim.Engine, med *radio.Medium, pos Position, cfg Config, ssid string) *AP {
	cfg.PowerDBm = radio.APTxPowerDBm
	cfg.PHY = PHY80211g
	ap := &AP{
		Station:           NewStation(eng, med, pos, cfg),
		SSID:              ssid,
		ProtectionTimeout: DefaultProtectionTimeout,
		clients:           make(map[dot80211.MAC]*assocClient),
	}
	ap.Station.OnMgmt = ap.handleMgmt
	ap.Station.Deliver = ap.handleData
	// Desynchronize TBTTs across APs like real deployments.
	first := sim.Time(eng.Rand().Int63n(int64(BeaconInterval)))
	eng.At(first, ap.beacon)
	return ap
}

// beacon emits one beacon and schedules the next.
func (ap *AP) beacon() {
	tsf := uint64(ap.eng.Now().US64())
	flags := byte(0)
	if ap.ProtectionOn() {
		flags |= beaconFlagProtection
	}
	body := make([]byte, 9+len(ap.SSID))
	binary.LittleEndian.PutUint64(body[:8], tsf)
	body[8] = flags
	copy(body[9:], ap.SSID)
	f := dot80211.Frame{
		Header: dot80211.Header{
			Type: dot80211.TypeManagement, Subtype: dot80211.SubtypeBeacon,
			Addr1: dot80211.Broadcast, Addr2: ap.cfg.MAC, Addr3: ap.cfg.MAC,
		},
		Body: body,
	}
	ap.SendMgmt(f, nil)
	ap.eng.After(BeaconInterval, ap.beacon)
}

// ProtectionOn reports whether 802.11g protection mode is currently active.
func (ap *AP) ProtectionOn() bool {
	return ap.sawB && ap.eng.Now()-ap.lastBSeen < ap.ProtectionTimeout
}

// noteBClient records evidence of an 802.11b station in range.
func (ap *AP) noteBClient() {
	ap.sawB = true
	ap.lastBSeen = ap.eng.Now()
}

// handleMgmt answers probe requests and runs the association handshake.
// Clients advertise their PHY in the first body byte of probe and
// association requests ('b' or 'g').
func (ap *AP) handleMgmt(f dot80211.Frame) {
	phyOf := func() PHYMode {
		if len(f.Body) > 0 && f.Body[0] == 'b' {
			return PHY80211b
		}
		return PHY80211g
	}
	switch f.Subtype {
	case dot80211.SubtypeProbeReq:
		if phyOf() == PHY80211b {
			ap.noteBClient()
		}
		resp := dot80211.NewProbeResp(f.Addr2, ap.cfg.MAC, 0, ap.SSID)
		ap.ProbeResponses++
		ap.SendMgmt(resp, nil)
	case dot80211.SubtypeAuth:
		resp := dot80211.NewMgmt(dot80211.SubtypeAuth, f.Addr2, ap.cfg.MAC, ap.cfg.MAC, 0, []byte{0})
		ap.SendMgmt(resp, nil)
	case dot80211.SubtypeAssocReq:
		phy := phyOf()
		ap.clients[f.Addr2] = &assocClient{mac: f.Addr2, phy: phy}
		if phy == PHY80211b {
			ap.noteBClient()
		}
		resp := dot80211.NewMgmt(dot80211.SubtypeAssocResp, f.Addr2, ap.cfg.MAC, ap.cfg.MAC, 0, []byte{0})
		ap.SendMgmt(resp, nil)
	case dot80211.SubtypeDisassoc:
		delete(ap.clients, f.Addr2)
	}
}

// handleData receives uplink frames from clients and bridges them.
func (ap *AP) handleData(f dot80211.Frame) {
	if c, ok := ap.clients[f.Addr2]; ok && c.phy == PHY80211b {
		ap.noteBClient()
	}
	if ap.ToWired != nil {
		ap.ToWired(f.Addr2, f.Addr3, f.Body)
	}
}

// SendToClient queues a downlink DATA frame toward an associated client,
// applying protection policy for OFDM transmissions. Returns false if the
// client is not associated.
func (ap *AP) SendToClient(dst dot80211.MAC, srcAddr dot80211.MAC, payload []byte, onDone func(bool)) bool {
	c, ok := ap.clients[dst]
	if !ok {
		if onDone != nil {
			onDone(false)
		}
		return false
	}
	rate := dot80211.Rate(0) // adapt
	if c.phy == PHY80211b {
		// CCK only toward b clients.
		rate = dot80211.Rate11Mbps
	}
	f := dot80211.NewData(dst, ap.cfg.MAC, srcAddr, ap.nextSeq(), payload)
	f.Flags |= dot80211.FlagFromDS
	ap.enqueue(outFrame{frame: f, rate: rate, protect: ap.ProtectionOn() && c.phy == PHY80211g, onDone: onDone})
	return true
}

// SendBroadcastDownlink transmits a broadcast frame received from the wired
// network (ARP, DHCP...). Broadcast frames go at the lowest rate with no
// ACK — the inefficiency §7.1 quantifies.
func (ap *AP) SendBroadcastDownlink(srcAddr dot80211.MAC, payload []byte) {
	f := dot80211.NewData(dot80211.Broadcast, ap.cfg.MAC, srcAddr, ap.nextSeq(), payload)
	f.Flags |= dot80211.FlagFromDS
	ap.enqueue(outFrame{frame: f, rate: dot80211.Rate1Mbps, noRetry: true})
}

// Associated reports whether a client is associated and its PHY.
func (ap *AP) Associated(c dot80211.MAC) (PHYMode, bool) {
	a, ok := ap.clients[c]
	if !ok {
		return 0, false
	}
	return a.phy, true
}
