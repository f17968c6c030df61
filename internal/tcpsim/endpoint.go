// Package tcpsim implements simplified-but-real TCP endpoints running over
// the simulated 802.11 MAC and a wired distribution network.
//
// The paper's transport-layer inference (§5.2, §7.4) needs genuine TCP
// sequence dynamics: handshakes, cumulative acknowledgments covering
// sequence space, retransmission timeouts, fast retransmits, and losses on
// both the wireless and wired segments of a path. This package provides
// exactly that — endpoints exchange tcpwire segments carried in 802.11 DATA
// frame bodies, so Jigsaw can parse them back out of its unified trace.
package tcpsim

import (
	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/tcpwire"
)

// state is the endpoint connection state.
type state uint8

const (
	stClosed state = iota
	stSynSent
	stSynRcvd
	stEstablished
	stFinWait // our FIN sent, awaiting ack
	stDone
)

// Timing parameters. The amount of data in flight is governed by a
// cc.Controller: the endpoint reports sends, new ACKs, RTT samples and loss
// events (fast retransmit vs RTO) to the controller and obeys its
// CwndSegments window and PacingGate release schedule. The default is
// cc.NewFixed(window) — the substrate's original fixed 8-segment flight —
// so scenarios that never install a controller behave bit-for-bit as
// before; SetCongestionControl swaps in Reno, CUBIC or BBR dynamics.
const (
	window        = cc.DefaultFixedWindow // fixed-mode segments in flight
	initialRTOUS  = 1_000_000
	minRTOUS      = 200_000
	maxRTOUS      = 60_000_000
	dupAckThresh  = 3
	maxSynRetries = 6
)

// Endpoint is one side of a TCP connection. The transport beneath it is a
// closure that ships an encoded segment toward the peer (through the MAC
// and/or the wired network); delivery calls OnSegment on the peer.
type Endpoint struct {
	eng  *sim.Engine
	send func(tcpwire.Segment)

	localIP    uint32
	localPort  uint16
	remoteIP   uint32
	remotePort uint16

	st  state
	iss uint32

	// Sender state.
	sndUna  uint32 // oldest unacked
	sndNxt  uint32 // next to send
	txLimit uint32 // iss+1+totalBytes: end of data to transmit
	finSeq  uint32 // sequence of our FIN, valid in stFinWait

	// Receiver state.
	rcvNxt   uint32
	oooBytes map[uint32]uint16 // out-of-order payload start → len

	// RTT estimation (RFC 6298 shape).
	srttUS, rttvarUS float64
	rtoUS            int64
	// Karn's algorithm: time and seq of the segment being timed.
	timedSeq    uint32
	timedAt     sim.Time
	timingValid bool

	rtxTimer sim.Handle
	dupAcks  int
	synTries int

	// Congestion control. cc decides the window and pacing; paceTimer
	// wakes pump when the pacing gate opens (fixed mode never arms it).
	cc          cc.Controller
	pacePending bool
	// modernRecovery enables NewReno-style loss recovery: a partial ACK
	// during recovery retransmits the next hole immediately, and forward
	// progress clears the RTO backoff. Required once a controller can pull
	// cwnd below the in-flight amount (a burst loss would otherwise drain
	// one hole per backed-off RTO); left off in fixed compatibility mode
	// to preserve the original substrate's event sequence exactly.
	modernRecovery bool
	recovering     bool
	recoverPoint   uint32

	wasEstablished bool
	// Teardown state: full half-close semantics. The connection is done
	// only when our FIN is acked AND the peer's FIN arrived; a passive
	// endpoint closes only in response to the peer's close.
	isInitiator bool
	finSent     bool
	finAcked    bool
	peerFin     bool

	// Done fires once when the connection completes (all data acked and
	// FIN exchange done) or is aborted.
	Done func(ok bool)

	// Stats observable by the scenario and tests.
	Stats EndpointStats
}

// EndpointStats counts transport events at one endpoint.
type EndpointStats struct {
	SegmentsSent   int
	SegmentsRcvd   int
	Retransmits    int
	FastRetransmit int
	Timeouts       int
	BytesAcked     int64
}

// NewEndpoint creates an endpoint. send ships encoded segments toward the
// peer asynchronously.
func NewEndpoint(eng *sim.Engine, localIP uint32, localPort uint16, send func(tcpwire.Segment)) *Endpoint {
	return &Endpoint{
		eng: eng, send: send,
		localIP: localIP, localPort: localPort,
		rtoUS:    initialRTOUS,
		oooBytes: make(map[uint32]uint16),
		cc:       cc.NewFixed(window),
	}
}

// SetCongestionControl installs a congestion controller. Call before
// Connect/Listen; the default is the fixed-window compatibility controller.
// Installing a non-fixed controller also enables modern loss recovery.
func (e *Endpoint) SetCongestionControl(c cc.Controller) {
	e.cc = c
	e.modernRecovery = c.Name() != cc.Fixed
}

// CCName reports the installed controller's algorithm name — the
// simulator-side ground truth the fairness table groups flows by.
func (e *Endpoint) CCName() string { return e.cc.Name() }

// Connect starts the active open toward a peer and arranges to transmit
// totalBytes of application data after establishment.
func (e *Endpoint) Connect(remoteIP uint32, remotePort uint16, totalBytes int64) {
	e.remoteIP, e.remotePort = remoteIP, remotePort
	e.iss = uint32(e.eng.Rand().Int63())
	e.sndUna, e.sndNxt = e.iss, e.iss
	e.txLimit = e.iss + 1 + uint32(totalBytes)
	e.isInitiator = true
	e.st = stSynSent
	e.sendSeg(e.iss, 0, tcpwire.FlagSYN, 0)
	e.sndNxt = e.iss + 1
	e.armRtx()
}

// Listen prepares a passive endpoint that will accept a connection and
// transmit totalBytes after establishment (0 for a pure sink).
func (e *Endpoint) Listen(totalBytes int64) {
	e.st = stClosed
	e.txLimit = uint32(totalBytes) // finalized at SYN receipt
}

// sendSeg builds, counts and ships one segment.
func (e *Endpoint) sendSeg(seq, ack uint32, flags uint8, payload uint16) {
	s := tcpwire.Segment{
		SrcIP: e.localIP, DstIP: e.remoteIP,
		SrcPort: e.localPort, DstPort: e.remotePort,
		Seq: seq, Ack: ack, Flags: flags, PayloadLen: payload,
	}
	e.Stats.SegmentsSent++
	e.send(s)
}

// OnSegment processes a segment arriving from the peer.
func (e *Endpoint) OnSegment(s tcpwire.Segment) {
	e.Stats.SegmentsRcvd++
	switch e.st {
	case stClosed:
		// Passive open.
		if s.IsSYN() && !s.IsACK() {
			e.remoteIP, e.remotePort = s.SrcIP, s.SrcPort
			e.iss = uint32(e.eng.Rand().Int63())
			e.sndUna, e.sndNxt = e.iss, e.iss
			e.txLimit += e.iss + 1 // Listen stored totalBytes
			e.rcvNxt = s.Seq + 1
			e.st = stSynRcvd
			e.sendSeg(e.iss, e.rcvNxt, tcpwire.FlagSYN|tcpwire.FlagACK, 0)
			e.sndNxt = e.iss + 1
			e.armRtx()
		}
	case stSynSent:
		if s.IsSYN() && s.IsACK() && s.Ack == e.iss+1 {
			e.rcvNxt = s.Seq + 1
			e.sndUna = s.Ack
			e.st = stEstablished
			e.wasEstablished = true
			e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, 0)
			e.rtxTimer.Cancel()
			e.pump()
		}
	case stSynRcvd:
		if s.IsACK() && s.Ack == e.iss+1 {
			e.sndUna = s.Ack
			e.st = stEstablished
			e.wasEstablished = true
			e.rtxTimer.Cancel()
			e.pump()
		}
		// Data may ride in with the third-ack; fall through to data path.
		e.handleData(s)
	case stEstablished, stFinWait:
		e.handleAck(s)
		e.handleData(s)
	case stDone:
		// Re-ACK a retransmitted FIN so the peer can finish too.
		if s.IsFIN() {
			e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, 0)
		}
	}
}

// handleAck advances the send window.
func (e *Endpoint) handleAck(s tcpwire.Segment) {
	if !s.IsACK() {
		return
	}
	if tcpwire.SeqLess(e.sndUna, s.Ack) && tcpwire.SeqLEQ(s.Ack, e.sndNxt) {
		acked := int64(s.Ack - e.sndUna)
		e.Stats.BytesAcked += acked
		e.sndUna = s.Ack
		e.dupAcks = 0
		e.cc.OnAck(acked, e.eng.Now().US64())
		// RTT sample (Karn: only if the timed segment is newly acked and
		// was not retransmitted — timingValid is cleared on rtx).
		if e.timingValid && tcpwire.SeqLess(e.timedSeq, s.Ack) {
			e.rttSample(e.eng.Now() - e.timedAt)
			e.timingValid = false
		}
		if e.modernRecovery {
			// Forward progress clears any RTO backoff (Karn keeps the
			// backed-off value otherwise, since retransmissions are never
			// timed and a reduced cwnd may stop producing fresh samples).
			if e.srttUS > 0 {
				rto := int64(e.srttUS + 4*e.rttvarUS)
				if rto < minRTOUS {
					rto = minRTOUS
				}
				e.rtoUS = rto
			}
			if e.recovering {
				if !tcpwire.SeqLess(s.Ack, e.recoverPoint) {
					e.recovering = false
				} else {
					// Partial ACK: the next hole was lost in the same
					// event; retransmit it now (NewReno) instead of
					// waiting out an RTO per hole.
					e.Stats.Retransmits++
					e.retransmitOne()
				}
			}
		}
		if e.sndUna == e.sndNxt {
			e.rtxTimer.Cancel()
		} else {
			e.armRtx()
		}
		e.pump()
	} else if s.Ack == e.sndUna && e.sndNxt != e.sndUna && s.PayloadLen == 0 && !s.IsSYN() && !s.IsFIN() {
		e.dupAcks++
		if e.dupAcks == dupAckThresh {
			e.Stats.FastRetransmit++
			e.Stats.Retransmits++
			e.cc.OnLoss(e.eng.Now().US64(), false)
			if e.modernRecovery && !e.recovering {
				e.recovering = true
				e.recoverPoint = e.sndNxt
			}
			e.retransmitOne()
		}
	}
	// FIN-of-ours acked?
	if e.finSent && !e.finAcked && tcpwire.SeqLess(e.finSeq, s.Ack) {
		e.finAcked = true
		e.rtxTimer.Cancel()
		e.maybeFinish()
	}
}

// maybeClose sends our FIN once all conditions hold: data fully acked, and
// either we initiated the connection (active close) or the peer has already
// closed (passive close-on-close).
func (e *Endpoint) maybeClose() {
	if e.finSent || !e.wasEstablished || e.st == stDone {
		return
	}
	if e.sndNxt == e.txLimit && e.sndUna == e.sndNxt && (e.isInitiator || e.peerFin) {
		e.sendFin()
	}
}

// maybeFinish completes the connection when both directions are closed.
func (e *Endpoint) maybeFinish() {
	if e.finAcked && e.peerFin {
		e.finish(true)
	}
}

// handleData delivers in-order data and acknowledges.
func (e *Endpoint) handleData(s tcpwire.Segment) {
	hasPayload := s.PayloadLen > 0 || s.IsFIN()
	if !hasPayload {
		return
	}
	if s.IsFIN() && s.Seq == e.rcvNxt && s.PayloadLen == 0 {
		e.rcvNxt = s.SeqEnd()
		e.peerFin = true
		e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, 0)
		e.maybeClose()
		e.maybeFinish()
		return
	}
	switch {
	case s.Seq == e.rcvNxt:
		e.rcvNxt = s.SeqEnd()
		// Absorb any contiguous out-of-order data.
		for {
			l, ok := e.oooBytes[e.rcvNxt]
			if !ok {
				break
			}
			delete(e.oooBytes, e.rcvNxt)
			e.rcvNxt += uint32(l)
		}
		e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, 0)
	case tcpwire.SeqLess(e.rcvNxt, s.Seq):
		// Out of order: buffer and send duplicate ACK.
		if s.PayloadLen > 0 {
			e.oooBytes[s.Seq] = s.PayloadLen
		}
		e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, 0)
	default:
		// Old duplicate: re-ACK.
		e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, 0)
	}
}

// pump transmits new data while the congestion window allows, honoring the
// controller's pacing gate (a paced controller spreads the window over the
// RTT instead of releasing it as one burst).
func (e *Endpoint) pump() {
	if e.st != stEstablished {
		return
	}
	for tcpwire.SeqLess(e.sndNxt, e.txLimit) && e.sndNxt-e.sndUna < uint32(e.cc.CwndSegments())*tcpwire.MSS {
		nowUS := e.eng.Now().US64()
		if gate := e.cc.PacingGate(nowUS); gate > nowUS {
			e.schedulePace(gate)
			return // data remains unsent, so maybeClose cannot fire yet
		}
		remain := e.txLimit - e.sndNxt
		p := uint16(tcpwire.MSS)
		if remain < tcpwire.MSS {
			p = uint16(remain)
		}
		if !e.timingValid {
			e.timedSeq, e.timedAt, e.timingValid = e.sndNxt, e.eng.Now(), true
		}
		e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagACK, p)
		e.cc.OnSend(int64(p), nowUS)
		e.sndNxt += uint32(p)
		e.armRtx()
	}
	e.maybeClose()
}

// schedulePace arms a one-shot wakeup at the pacing gate (at most one
// outstanding; re-pumps on fire).
func (e *Endpoint) schedulePace(gateUS int64) {
	if e.pacePending {
		return
	}
	e.pacePending = true
	e.eng.At(sim.US(gateUS), func() {
		e.pacePending = false
		e.pump()
	})
}

// sendFin transmits our FIN.
func (e *Endpoint) sendFin() {
	e.finSent = true
	e.finSeq = e.sndNxt
	e.sendSeg(e.sndNxt, e.rcvNxt, tcpwire.FlagFIN|tcpwire.FlagACK, 0)
	e.sndNxt++
	e.st = stFinWait
	e.armRtx()
}

// retransmitOne resends the oldest unacked segment.
func (e *Endpoint) retransmitOne() {
	e.timingValid = false // Karn
	switch {
	case e.st == stSynSent:
		e.sendSeg(e.iss, 0, tcpwire.FlagSYN, 0)
	case e.st == stSynRcvd:
		e.sendSeg(e.iss, e.rcvNxt, tcpwire.FlagSYN|tcpwire.FlagACK, 0)
	case e.st == stFinWait && e.sndUna == e.finSeq:
		e.sendSeg(e.finSeq, e.rcvNxt, tcpwire.FlagFIN|tcpwire.FlagACK, 0)
	default:
		remain := e.txLimit - e.sndUna
		p := uint16(tcpwire.MSS)
		if remain < tcpwire.MSS {
			p = uint16(remain)
		}
		if p == 0 {
			return
		}
		e.sendSeg(e.sndUna, e.rcvNxt, tcpwire.FlagACK, p)
	}
	e.armRtx()
}

// armRtx (re)starts the retransmission timer.
func (e *Endpoint) armRtx() {
	e.rtxTimer.Cancel()
	e.rtxTimer = e.eng.After(sim.US(e.rtoUS), e.onRtxTimeout)
}

// onRtxTimeout fires the RTO: back off and retransmit.
func (e *Endpoint) onRtxTimeout() {
	if e.st == stDone {
		return
	}
	if e.st == stSynSent || e.st == stSynRcvd {
		e.synTries++
		if e.synTries > maxSynRetries {
			e.finish(false)
			return
		}
	}
	if e.sndUna == e.sndNxt && e.st == stEstablished {
		return // nothing outstanding
	}
	e.Stats.Timeouts++
	e.Stats.Retransmits++
	e.cc.OnLoss(e.eng.Now().US64(), true)
	if e.modernRecovery && e.st == stEstablished {
		e.recovering = true
		e.recoverPoint = e.sndNxt
	}
	e.rtoUS *= 2
	if e.rtoUS > maxRTOUS {
		e.rtoUS = maxRTOUS
	}
	e.retransmitOne()
}

// rttSample updates srtt/rttvar/rto per RFC 6298.
func (e *Endpoint) rttSample(rtt sim.Time) {
	r := float64(rtt.US64())
	e.cc.OnRTTSample(rtt.US64(), e.eng.Now().US64())
	if e.srttUS == 0 {
		e.srttUS = r
		e.rttvarUS = r / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		d := e.srttUS - r
		if d < 0 {
			d = -d
		}
		e.rttvarUS = (1-beta)*e.rttvarUS + beta*d
		e.srttUS = (1-alpha)*e.srttUS + alpha*r
	}
	rto := int64(e.srttUS + 4*e.rttvarUS)
	if rto < minRTOUS {
		rto = minRTOUS
	}
	e.rtoUS = rto
}

// finish completes the connection.
func (e *Endpoint) finish(ok bool) {
	if e.st == stDone {
		return
	}
	e.st = stDone
	e.rtxTimer.Cancel()
	if e.Done != nil {
		e.Done(ok)
	}
}

// Established reports whether the connection reached the established state
// at some point.
func (e *Endpoint) Established() bool { return e.wasEstablished }

// SRTTUS returns the smoothed RTT estimate in µs (0 before any sample).
func (e *Endpoint) SRTTUS() float64 { return e.srttUS }
