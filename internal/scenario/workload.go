package scenario

import (
	"repro/internal/building"
	"repro/internal/cc"
	"repro/internal/dot80211"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tcpwire"
	"repro/internal/workload"
)

// scheduleWorkload sets up client sessions, flows and the broadcast
// pathologies across the compressed day.
func (s *state) scheduleWorkload() {
	hour := s.cfg.HourDur()

	if s.cfg.OracleLocations > 0 {
		s.scheduleOracle()
	}
	if s.cfg.MobileClients > 0 {
		s.setupMobility()
	}

	for ci, cl := range s.clients {
		cl := cl
		sessions := workload.SampleSessions(s.rng)
		for _, sess := range sessions {
			start := sim.Time(sess.StartHour * float64(hour))
			end := start + sim.Time(sess.Hours*float64(hour))
			if end > s.cfg.Day {
				end = s.cfg.Day
			}
			s.eng.At(start, func() { s.startSession(cl, end) })
		}
		// Background scans (probe requests) while powered on.
		if s.cfg.ProbeInterval > 0 {
			jitter := sim.Time(s.rng.Int63n(int64(s.cfg.ProbeInterval) + 1))
			s.eng.At(jitter, func() { s.probeLoop(cl) })
		}
		// MS-Office license broadcasts from afflicted clients (fn. 6).
		if s.cfg.OfficeInterval > 0 && s.rng.Float64() < workload.OfficeClientFraction {
			_ = ci
			s.eng.At(sim.Time(s.rng.Int63n(int64(s.cfg.OfficeInterval)+1)), func() { s.officeLoop(cl) })
		}
	}

	// Vernier management-server ARP sweeps: one wired broadcast fans out
	// through every AP at nearly the same instant (§7.1).
	if s.cfg.ARPInterval > 0 {
		s.eng.At(s.cfg.ARPInterval, s.arpSweep)
	}
}

// startSession associates the client (if needed) and begins its flow loop.
func (s *state) startSession(cl *client, end sim.Time) {
	if !cl.ready && !cl.mc.IsAssociated() && cl.mc.BSSID().IsZero() {
		cl.mc.Associate(apMAC(s.cfg.IndexBase + cl.info.APIndex))
	}
	s.flowLoop(cl, end)
}

// flowLoop launches flows with exponential gaps until the session ends.
func (s *state) flowLoop(cl *client, end sim.Time) {
	if s.eng.Now() >= end {
		return
	}
	if cl.ready {
		s.startFlow(cl)
	}
	gap := sim.Time(float64(s.cfg.FlowMeanGap) * s.rng.ExpFloat64())
	if gap < 100*sim.Millisecond {
		gap = 100 * sim.Millisecond
	}
	s.eng.After(gap, func() { s.flowLoop(cl, end) })
}

// startFlow creates a TCP connection between the client and a server.
func (s *state) startFlow(cl *client) {
	spec := workload.SampleFlow(s.rng)
	if s.cfg.FlowScale > 0 && s.cfg.FlowScale != 1 {
		spec.UpBytes = int64(float64(spec.UpBytes) * s.cfg.FlowScale)
		spec.DownBytes = int64(float64(spec.DownBytes) * s.cfg.FlowScale)
	}
	// Server indices are campus-global from the draw (IndexBase offsets the
	// per-building pool), so every MAC/IP derived from them — including the
	// seg.SrcIP-serverIPBase recomputations on the wired side — needs no
	// further adjustment.
	srv := s.cfg.IndexBase + s.rng.Intn(numServers)
	srvIP := uint32(serverIPBase + srv)
	srvMAC := serverMAC(srv)
	port := s.nextPort
	s.nextPort++
	if s.nextPort < 40000 {
		s.nextPort = 40000
	}

	// Client endpoint: segments ride the wireless uplink.
	cep := tcpsim.NewEndpoint(s.eng, cl.info.IP, port, func(seg tcpwire.Segment) {
		cl.mc.SendUplink(srvMAC, seg.Encode(), nil)
	})
	// Server endpoint: segments traverse the wired network to the AP.
	cliMACv := cl.info.MAC
	remote := spec.Remote
	sep := tcpsim.NewEndpoint(s.eng, srvIP, 80, func(seg tcpwire.Segment) {
		s.wired.Forward(srvMAC, cliMACv, seg, remote)
	})
	// Per-flow congestion control: both sides run the sampled algorithm
	// (fixed compatibility mode draws nothing from the rng at all).
	algo := cc.Fixed
	if s.ccMix != nil {
		algo = s.ccMix.Pick(s.rng.Float64())
		if algo != cc.Fixed {
			cep.SetCongestionControl(cc.MustNew(algo, tcpwire.MSS))
			sep.SetCongestionControl(cc.MustNew(algo, tcpwire.MSS))
		}
	}
	sep.Listen(spec.DownBytes)

	fs := &flowState{ep: cep, server: sep, truthIdx: len(s.out.FlowCCs)}
	cl.flows[port] = fs
	s.out.FlowsStarted++
	s.out.FlowCCs = append(s.out.FlowCCs, FlowCC{
		Key: (&tcpwire.Segment{
			SrcIP: cl.info.IP, SrcPort: port, DstIP: srvIP, DstPort: 80,
		}).Key(),
		Algo:     algo,
		ClientIP: cl.info.IP, ClientPort: port, ServerIP: srvIP,
		UpBytes: spec.UpBytes, DownBytes: spec.DownBytes,
		StartUS: s.eng.Now().US64(),
	})

	done := func(ok bool) {
		if _, live := cl.flows[port]; live {
			delete(cl.flows, port)
			if ok {
				s.out.FlowsCompleted++
			}
			rec := &s.out.FlowCCs[fs.truthIdx]
			rec.Completed = ok
			rec.EndUS = s.eng.Now().US64()
			rec.BytesAcked = cep.Stats.BytesAcked + sep.Stats.BytesAcked
		}
	}
	cep.Done = done
	// The server handler must receive uplink segments: attach a per-flow
	// demux under the server MAC the first time it is used.
	s.attachServer(srv)

	cep.Connect(srvIP, 80, spec.UpBytes)
}

// serverHosts demuxes uplink segments to per-flow server endpoints.
type serverHost struct {
	flows map[tcpwire.FlowKey]*tcpsim.Endpoint
}

// attachServer lazily registers a server MAC on the wired network.
func (s *state) attachServer(idx int) {
	if s.servers == nil {
		s.servers = make(map[int]*serverHost)
	}
	if _, ok := s.servers[idx]; ok {
		return
	}
	sh := &serverHost{flows: make(map[tcpwire.FlowKey]*tcpsim.Endpoint)}
	s.servers[idx] = sh
	s.wired.Attach(serverMAC(idx), func(seg tcpwire.Segment) {
		key := seg.Key()
		ep := sh.flows[key]
		if ep == nil {
			// Locate the flow by the client's registration.
			ep = s.lookupServerEndpoint(seg)
			if ep == nil {
				return
			}
			sh.flows[key] = ep
		}
		ep.OnSegment(seg)
	})
}

// lookupServerEndpoint finds the server endpoint for a segment by asking
// the owning client's flow table.
func (s *state) lookupServerEndpoint(seg tcpwire.Segment) *tcpsim.Endpoint {
	ci := int(seg.SrcIP-clientIPBase) - s.cfg.IndexBase
	if ci < 0 || ci >= len(s.clients) {
		return nil
	}
	if fs, ok := s.clients[ci].flows[seg.SrcPort]; ok {
		return fs.server
	}
	return nil
}

// probeLoop issues background scans.
func (s *state) probeLoop(cl *client) {
	cl.mc.Scan()
	gap := s.cfg.ProbeInterval + sim.Time(s.rng.Int63n(int64(s.cfg.ProbeInterval)+1))
	s.eng.After(gap, func() { s.probeLoop(cl) })
}

// officeLoop broadcasts the MS-Office license announcement.
func (s *state) officeLoop(cl *client) {
	if cl.ready {
		body := append([]byte("MSOFFICE-LICENSE-UDP2222:"), cl.info.MAC[:]...)
		cl.mc.SendLocalBroadcast(body)
	}
	s.eng.After(s.cfg.OfficeInterval, func() { s.officeLoop(cl) })
}

// arpSweep broadcasts a Vernier-style "who-has" through every AP at nearly
// the same moment — they interfere with themselves across the building.
func (s *state) arpSweep() {
	body := []byte("ARP who-has? tell vernier-mgmt")
	for _, ap := range s.aps {
		ap := ap
		// Wired fan-out jitter is microseconds: effectively simultaneous.
		s.eng.After(sim.Time(s.rng.Int63n(int64(200*sim.Microsecond))), func() {
			ap.SendBroadcastDownlink(serverMAC(s.cfg.IndexBase), body)
		})
	}
	s.eng.After(s.cfg.ARPInterval, s.arpSweep)
}

// scheduleOracle adds the §6 controlled experiment: one roaming "oracle
// laptop" visiting locations throughout the building (three per wing per
// floor in the paper), generating the web/ssh/scp workload at each, while
// the ground-truth log records every link-level event it generates.
func (s *state) scheduleOracle() {
	idx := len(s.clients)
	gidx := s.cfg.IndexBase + idx
	pos := building.ClientArea(s.rng)
	id := radio.NodeID(nodeClientBase + idx)
	ccfg := mac.Config{ID: id, MAC: cliMAC(gidx), Channel: 1, PHY: mac.PHY80211g}
	s.med.Register(id, pos, 1, radio.NopListener{}, false)
	bestAP := s.strongestAP(id)
	ccfg.Channel = s.apInfo[bestAP].Channel
	mc := mac.NewClient(s.eng, s.med, pos, ccfg)
	cl := &client{
		info: ClientInfo{
			MAC: cliMAC(gidx), IP: clientIPBase + uint32(gidx), PHY: mac.PHY80211g,
			APIndex: bestAP, Node: id, Pos: pos,
		},
		mc:    mc,
		flows: make(map[uint16]*flowState),
	}
	mc.FromWireless = func(src dot80211.MAC, payload []byte) { s.downlinkToClient(cl, payload) }
	mc.OnAssociated = func() { cl.ready = true }
	s.clients = append(s.clients, cl)
	s.out.Clients = append(s.out.Clients, cl.info)
	s.out.OracleMAC = cl.info.MAC

	// Downlink routing must follow the roaming client's current AP.
	oracleMAC := cl.info.MAC
	s.wired.Attach(oracleMAC, func(seg tcpwire.Segment) {
		ap := s.aps[cl.info.APIndex]
		ap.SendToClient(oracleMAC, serverMAC(int(seg.SrcIP-serverIPBase)), seg.Encode(), nil)
	})

	dwell := s.cfg.Day / sim.Time(s.cfg.OracleLocations)
	visit := func(n int) {}
	visit = func(n int) {
		if n >= s.cfg.OracleLocations {
			return
		}
		loc := building.ClientArea(s.rng)
		s.med.SetPosition(id, loc)
		cl.info.Pos = loc
		best := s.strongestAP(id)
		cl.info.APIndex = best
		cl.ready = false
		s.med.SetChannel(id, dot80211.Channel(s.apInfo[best].Channel))
		cl.mc.Reassociate(apMAC(s.cfg.IndexBase + best))
		s.eng.After(dwell, func() { visit(n + 1) })
	}
	s.eng.At(0, func() {
		visit(0)
		s.flowLoop(cl, s.cfg.Day)
	})
}

// strongestAP returns the index of the AP with the best downlink RSSI at a
// node's current position.
func (s *state) strongestAP(id radio.NodeID) int {
	best, bestRSSI := 0, -1e9
	for ai := range s.aps {
		r := s.med.RSSIBetween(radio.NodeID(nodeAPBase+ai), id, radio.APTxPowerDBm)
		if r > bestRSSI {
			bestRSSI, best = r, ai
		}
	}
	return best
}
