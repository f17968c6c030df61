package scenario

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/building"
	"repro/internal/cc"
	"repro/internal/clock"
	"repro/internal/dot80211"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/tcpwire"
	"repro/internal/tracefile"
)

// state is the live simulation.
type state struct {
	cfg   Config
	eng   *sim.Engine
	med   *radio.Medium
	bld   *building.Building
	wired *tcpsim.WiredNet
	rng   *rand.Rand

	monitors []*monitorRadio
	aps      []*mac.AP
	apInfo   []APInfo
	clients  []*client
	servers  map[int]*serverHost
	out      *Output

	// ccMix assigns a congestion controller per flow (nil = fixed-window
	// for everyone, the compatibility path).
	ccMix *cc.Mix

	nextPort uint16
}

// client couples the MAC client with its transport demux and schedule.
type client struct {
	info ClientInfo
	mc   *mac.Client
	// flows in progress keyed by local port.
	flows map[uint16]*flowState
	ready bool
}

type flowState struct {
	ep     *tcpsim.Endpoint
	server *tcpsim.Endpoint
	// truthIdx locates this flow's FlowCC record in Output.FlowCCs.
	truthIdx int
}

// monitorRadio captures everything its radio hears into a trace writer.
//
// Reception events complete at frame end but are timestamped at frame
// start (like the Atheros RX timestamp), so overlapping transmissions can
// complete out of timestamp order; a short reorder buffer restores the
// per-radio time order the jigdump format guarantees.
type monitorRadio struct {
	radio.NopListener
	s       *state
	id      radio.NodeID
	ch      dot80211.Channel
	clk     *clock.Clock
	w       *tracefile.Writer
	pending []tracefile.Record
	// Spill backing (nil for in-memory runs): records stream through bw
	// into f as they are captured instead of accumulating in a buffer.
	f  *os.File
	bw *bufio.Writer
	// werr latches the first trace-write failure; the capture callback
	// cannot return it, so finish() surfaces it.
	werr error
}

// write appends one record to the trace, latching the first failure.
func (m *monitorRadio) write(rec tracefile.Record) {
	if err := m.w.WriteRecord(rec); err != nil && m.werr == nil {
		m.werr = err
	}
}

// reorderWindowUS bounds how far records can arrive out of order: the
// longest frame airtime (~12 ms at 1 Mbps) plus slack.
const reorderWindowUS = 20_000

// spillWriteBufSize sizes the write buffer in front of each spilled trace
// file; a block flushes at block.Target (16 KB) raw bytes, less once
// compressed, so this batches several blocks per syscall without holding
// meaningful memory per radio.
const spillWriteBufSize = 128 * 1024

// OnReceive implements radio.Listener for a passive monitor.
func (m *monitorRadio) OnReceive(info radio.RxInfo) {
	rec := tracefile.Record{
		LocalUS: m.clk.LocalUS(int64(info.Start)),
		RadioID: int32(m.id),
		Channel: uint8(m.ch),
		RSSIdBm: int8(info.RSSIdBm),
		Rate:    uint16(info.Rate),
	}
	switch info.Outcome {
	case radio.RxOK:
		rec.Flags = tracefile.FlagFCSOK
		rec.Frame = append([]byte(nil), info.Bytes...)
		m.s.out.CapturedValid[info.TxID]++
	case radio.RxCorrupt:
		rec.Frame = info.Bytes // already a private damaged copy
		m.s.out.CapturedCorrupt[info.TxID]++
	case radio.RxPhyError:
		rec.Flags = tracefile.FlagPhyErr
		m.s.out.CapturedPhy[info.TxID]++
	default:
		return
	}
	m.s.out.CapturedAny[info.TxID]++
	m.s.out.MonitorRecords++

	// Insert in timestamp order (inversions are rare and shallow).
	i := len(m.pending)
	for i > 0 && m.pending[i-1].LocalUS > rec.LocalUS {
		i--
	}
	m.pending = append(m.pending, tracefile.Record{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = rec
	// Flush everything older than the reorder window.
	cut := 0
	newest := m.pending[len(m.pending)-1].LocalUS
	for cut < len(m.pending) && m.pending[cut].LocalUS < newest-reorderWindowUS {
		m.write(m.pending[cut])
		cut++
	}
	m.pending = m.pending[cut:]
}

// flush drains the reorder buffer at end of run.
func (m *monitorRadio) flush() {
	for _, rec := range m.pending {
		m.write(rec)
	}
	m.pending = nil
}

func newState(cfg Config) *state {
	eng := sim.NewEngine(cfg.Seed)
	s := &state{
		cfg: cfg, eng: eng,
		med: radio.NewMedium(eng, radio.NewPropagation(cfg.Seed)),
		rng: eng.NewStream(0x5ce9a410),
		out: &Output{
			Cfg:             cfg,
			Traces:          make(map[int32]*bytes.Buffer),
			CapturedValid:   make(map[uint64]int),
			CapturedAny:     make(map[uint64]int),
			CapturedCorrupt: make(map[uint64]int),
			CapturedPhy:     make(map[uint64]int),
			MonitorClocks:   make(map[int32]*clock.Clock),
		},
		nextPort: 40000,
	}
	s.wired = tcpsim.NewWiredNet(eng)
	s.wired.LossProb = cfg.WiredLossProb
	s.wired.QueuePkts = cfg.WiredQueuePkts
	if cfg.WiredBottleneckMbps > 0 {
		// Mbps → bytes/µs: 1 Mbps = 0.125 bytes/µs.
		s.wired.BottleneckBytesPerUS = cfg.WiredBottleneckMbps * 0.125
	}
	return s
}

func apMAC(i int) dot80211.MAC  { return dot80211.MAC{0xaa, 0, 0, 0, byte(i >> 8), byte(i)} }
func cliMAC(i int) dot80211.MAC { return dot80211.MAC{0xc2, 0, 0, 0, byte(i >> 8), byte(i)} }

// serverMAC identifies upstream hosts on the wired side.
func serverMAC(i int) dot80211.MAC { return dot80211.MAC{0xee, 0, 0, 0, byte(i >> 8), byte(i)} }

const (
	clientIPBase = 0x0a_00_00_00
	serverIPBase = 0x0b_00_00_00
	numServers   = 16
)

// buildWorld creates geometry, monitors, APs, clients and wiring. The only
// error source is trace spilling (directory creation, file opens).
func (s *state) buildWorld() error {
	cfg := s.cfg
	s.bld = building.New(building.Config{NumPods: cfg.Pods, NumAPs: cfg.APs, Seed: cfg.Seed})
	s.out.Building = s.bld

	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
		s.out.TraceDir = cfg.SpillDir
	}

	// Ground-truth hook.
	s.med.OnTransmit = s.recordTruth

	// Monitors: 4 radios per pod covering channels 1/6/11 (+1 repeat),
	// two radios per monitor sharing one clock (§3.3).
	chans := []dot80211.Channel{1, 6, 11}
	firstClock := true
	for _, pod := range s.bld.Pods {
		for m := 0; m < 2; m++ {
			// Draw the clock parameters unconditionally so NTPAnchor leaves
			// the rng stream (and every later sample) unchanged.
			off := s.rng.Int63n(100_000_000) - 50_000_000 // ±50 ms
			skew := s.rng.NormFloat64() * 20              // well under 100 ppm
			drift := s.rng.NormFloat64() * 1.5
			if cfg.NTPAnchor && firstClock {
				off, skew, drift = 0, 0, 0
			}
			firstClock = false
			clk := &clock.Clock{OffsetNS: off, SkewPPM: skew, DriftPPMH: drift}
			var group []int32
			for r := 0; r < 2; r++ {
				ri := int(cfg.RadioIDBase) + int(pod.Radios[m*2+r])
				ch := chans[(int(pod.ID)+m*2+r)%len(chans)]
				mr := &monitorRadio{s: s, id: radio.NodeID(ri), ch: ch, clk: clk}
				if cfg.SpillDir != "" {
					f, err := os.Create(tracefile.TracePath(cfg.SpillDir, int32(ri)))
					if err != nil {
						return fmt.Errorf("spill trace for radio %d: %w", ri, err)
					}
					mr.f = f
					mr.bw = bufio.NewWriterSize(f, spillWriteBufSize)
					mr.w = tracefile.NewWriter(mr.bw)
				} else {
					buf := &bytes.Buffer{}
					s.out.Traces[int32(ri)] = buf
					mr.w = tracefile.NewWriter(buf)
				}
				mr.w.SetSnapLen(cfg.SnapLen)
				s.out.MonitorClocks[int32(ri)] = clk
				s.monitors = append(s.monitors, mr)
				s.med.Register(mr.id, pod.Pos, ch, mr, false)
				group = append(group, int32(ri))
			}
			s.out.ClockGroups = append(s.out.ClockGroups, group)
		}
	}

	// APs. MACs are campus-global (IndexBase); node ids and roster indices
	// stay building-local.
	for i, apDesc := range s.bld.APs {
		id := radio.NodeID(nodeAPBase + i)
		cfgAP := mac.Config{
			ID: id, MAC: apMAC(cfg.IndexBase + i), Channel: dot80211.Channel(apDesc.Channel),
		}
		ap := mac.NewAP(s.eng, s.med, apDesc.Pos, cfgAP, "jigsaw-net")
		ap.ProtectionTimeout = cfg.ProtectionTimeout
		ap.ToWired = s.uplinkFromAP
		s.aps = append(s.aps, ap)
		s.apInfo = append(s.apInfo, APInfo{
			MAC: apMAC(cfg.IndexBase + i), Channel: dot80211.Channel(apDesc.Channel), Node: id, Pos: apDesc.Pos,
		})
	}
	s.out.APs = s.apInfo

	// Clients: placed in offices, associated to the strongest AP.
	for i := 0; i < cfg.Clients; i++ {
		pos := building.ClientArea(s.rng)
		id := radio.NodeID(nodeClientBase + i)
		phy := mac.PHY80211g
		if s.rng.Float64() < cfg.BFraction {
			phy = mac.PHY80211b
		}
		// Pick the AP with the best downlink RSSI at this client, but a
		// b-only client can only join an AP whose channel it can use (all
		// can; b clients just never decode OFDM).
		ccfg := mac.Config{
			ID: id, MAC: cliMAC(cfg.IndexBase + i), PHY: phy,
			BrokenRetryBit: s.rng.Float64() < cfg.BrokenRetryFrac,
		}
		// Register a probe node to measure RSSI, then create for real.
		bestAP, bestRSSI := 0, -1e9
		s.med.Register(id, pos, 1, radio.NopListener{}, false)
		for ai := range s.aps {
			r := s.med.RSSIBetween(radio.NodeID(nodeAPBase+ai), id, radio.APTxPowerDBm)
			if r > bestRSSI {
				bestRSSI, bestAP = r, ai
			}
		}
		ccfg.Channel = s.apInfo[bestAP].Channel
		mc := mac.NewClient(s.eng, s.med, pos, ccfg)
		cl := &client{
			info: ClientInfo{
				MAC: cliMAC(cfg.IndexBase + i), IP: clientIPBase + uint32(cfg.IndexBase+i), PHY: phy,
				APIndex: bestAP, Node: id, Pos: pos,
			},
			mc:    mc,
			flows: make(map[uint16]*flowState),
		}
		mc.FromWireless = func(src dot80211.MAC, payload []byte) { s.downlinkToClient(cl, payload) }
		mc.OnAssociated = func() { cl.ready = true }
		s.clients = append(s.clients, cl)
		s.out.Clients = append(s.out.Clients, cl.info)

		// Attach the client's wired-side address: downlink segments are
		// forwarded to its AP for wireless delivery. Mobile clients route
		// through whichever AP they are currently associated with (the
		// distribution network learns the move, like a real switch fabric
		// after a reassociation); stationary clients keep the cheaper
		// fixed binding.
		capturedMAC := cliMAC(cfg.IndexBase + i)
		if i < cfg.MobileClients {
			s.wired.Attach(capturedMAC, func(seg tcpwire.Segment) {
				ap := s.aps[cl.info.APIndex]
				ap.SendToClient(capturedMAC, serverMAC(int(seg.SrcIP-serverIPBase)), seg.Encode(), nil)
			})
		} else {
			capturedAP := s.aps[bestAP]
			s.wired.Attach(capturedMAC, func(seg tcpwire.Segment) {
				capturedAP.SendToClient(capturedMAC, serverMAC(int(seg.SrcIP-serverIPBase)), seg.Encode(), nil)
			})
		}
	}

	// Wired tap.
	s.wired.Tap = func(seg tcpwire.Segment, src, dst dot80211.MAC, delivered bool) {
		s.out.Wired = append(s.out.Wired, WiredPacket{
			TimeUS: s.eng.Now().US64(), Seg: seg, Src: src, Dst: dst,
			Delivered: delivered, Downlink: dst[0] == 0xc2,
		})
	}

	// Noise sources (microwave ovens in kitchenettes).
	for i := 0; i < cfg.NoiseSources; i++ {
		id := radio.NodeID(nodeNoiseBase + i)
		pos := building.ClientArea(s.rng)
		s.med.Register(id, pos, dot80211.Channel(6), radio.NopListener{}, false)
		s.scheduleNoise(id)
	}
	return nil
}

// recordTruth logs every physical transmission.
func (s *state) recordTruth(r radio.TxRecord) {
	t := TxSummary{
		ID: r.ID, Src: r.Src, Channel: r.Channel, Rate: r.Rate,
		StartUS: int64(r.Start / 1000), WireLen: len(r.Bytes),
	}
	if r.Noise {
		t.Kind = TxNoise
	} else if f, err := dot80211.Decode(r.Bytes); err == nil {
		t.SrcMAC = f.Transmitter()
		t.Dest = f.Addr1
		t.Seq = f.Seq
		t.Retry = f.Retry()
		t.Unicast = !f.Addr1.IsMulticast()
		switch {
		case f.IsData():
			t.Kind = TxData
		case f.Type == dot80211.TypeManagement:
			t.Kind = TxMgmt
		case f.IsACK():
			t.Kind = TxAck
		case f.IsCTS():
			t.Kind = TxCTS
		default:
			t.Kind = TxOther
		}
	}
	s.out.Truth = append(s.out.Truth, t)
}

// uplinkFromAP bridges client frames onto the wired network.
func (s *state) uplinkFromAP(src, dst dot80211.MAC, payload []byte) {
	seg, err := tcpwire.DecodeSegment(payload)
	if err != nil {
		return // ARP/Office broadcasts and other non-TCP traffic die here
	}
	remote := seg.DstIP >= serverIPBase && int(seg.DstIP-serverIPBase)%3 == 0
	s.wired.Forward(src, dst, seg, remote)
}

// downlinkToClient demuxes a received segment to the owning flow endpoint.
func (s *state) downlinkToClient(cl *client, payload []byte) {
	seg, err := tcpwire.DecodeSegment(payload)
	if err != nil {
		return
	}
	if fs, ok := cl.flows[seg.DstPort]; ok {
		fs.ep.OnSegment(seg)
	}
}

// scheduleNoise arranges microwave bursts around the lunch hours.
func (s *state) scheduleNoise(id radio.NodeID) {
	hour := s.cfg.HourDur()
	start := sim.Time(11.5 * float64(hour))
	end := sim.Time(13.5 * float64(hour))
	var burst func()
	burst = func() {
		now := s.eng.Now()
		if now > end {
			return
		}
		if now >= start {
			// Magnetron duty cycle: ~8 ms on, ~12 ms off.
			s.med.EmitNoise(id, 15, 6, 8*sim.Millisecond)
		}
		gap := 12*sim.Millisecond + sim.Time(s.rng.Int63n(int64(8*sim.Millisecond)))
		s.eng.After(8*sim.Millisecond+gap, burst)
	}
	s.eng.At(start, burst)
}
