package transport

import (
	"testing"

	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/tcpwire"
	"repro/internal/unify"
)

var (
	cli = dot80211.MAC{2, 0, 0, 0, 0, 1}
	ap  = dot80211.MAC{0xaa, 0, 0, 0, 0, 1}
)

const (
	cliIP = 0x0a000001
	srvIP = 0x0a000002
)

// exFor wraps a TCP segment into a delivered-or-not frame exchange.
func exFor(seg tcpwire.Segment, us int64, delivery llc.Delivery) *llc.Exchange {
	var tx, rx dot80211.MAC
	if seg.SrcIP == cliIP {
		tx, rx = cli, ap
	} else {
		tx, rx = ap, cli
	}
	macSeq := uint16(us/100) & 0xfff
	f := dot80211.NewData(rx, tx, ap, macSeq, seg.Encode())
	j := &unify.JFrame{UnivUS: us, Frame: f, Wire: f.Encode(), Rate: dot80211.Rate54Mbps, Valid: true}
	at := &llc.Attempt{Data: j, Transmitter: tx, Receiver: rx, Seq: macSeq, HasSeq: true, StartUS: us, EndUS: us + 300}
	return &llc.Exchange{
		Attempts: []*llc.Attempt{at}, Transmitter: tx, Receiver: rx, Seq: macSeq,
		Delivery: delivery, StartUS: us, EndUS: us + 300,
	}
}

// handshake emits SYN / SYN-ACK / ACK exchanges.
func handshake(a *Analyzer, baseUS int64, cliISS, srvISS uint32) {
	a.AddExchange(exFor(tcpwire.Segment{
		SrcIP: cliIP, DstIP: srvIP, SrcPort: 5000, DstPort: 80,
		Seq: cliISS, Flags: tcpwire.FlagSYN,
	}, baseUS, llc.DeliveryObserved))
	a.AddExchange(exFor(tcpwire.Segment{
		SrcIP: srvIP, DstIP: cliIP, SrcPort: 80, DstPort: 5000,
		Seq: srvISS, Ack: cliISS + 1, Flags: tcpwire.FlagSYN | tcpwire.FlagACK,
	}, baseUS+1000, llc.DeliveryObserved))
	a.AddExchange(exFor(tcpwire.Segment{
		SrcIP: cliIP, DstIP: srvIP, SrcPort: 5000, DstPort: 80,
		Seq: cliISS + 1, Ack: srvISS + 1, Flags: tcpwire.FlagACK,
	}, baseUS+2000, llc.DeliveryObserved))
}

func dataSeg(seq uint32, payload uint16) tcpwire.Segment {
	return tcpwire.Segment{
		SrcIP: cliIP, DstIP: srvIP, SrcPort: 5000, DstPort: 80,
		Seq: seq, Flags: tcpwire.FlagACK, PayloadLen: payload,
	}
}

func ackSeg(ack uint32) tcpwire.Segment {
	return tcpwire.Segment{
		SrcIP: srvIP, DstIP: cliIP, SrcPort: 80, DstPort: 5000,
		Ack: ack, Flags: tcpwire.FlagACK,
	}
}

func TestHandshakeDetection(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 1000, 100, 900)
	flows := a.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	if !flows[0].HandshakeComplete {
		t.Error("handshake not detected")
	}
	if a.Stats.CompleteFlows != 1 || a.Stats.TCPSegments != 3 {
		t.Errorf("stats = %+v", a.Stats)
	}
}

func TestIncompleteHandshakeExcluded(t *testing.T) {
	a := NewAnalyzer()
	// SYN only: a port scan.
	a.AddExchange(exFor(tcpwire.Segment{
		SrcIP: cliIP, DstIP: srvIP, SrcPort: 5000, DstPort: 80,
		Seq: 55, Flags: tcpwire.FlagSYN,
	}, 1000, llc.DeliveryUnknown))
	if a.Stats.CompleteFlows != 0 {
		t.Error("scan counted as complete flow")
	}
	if len(a.LossRates(0)) != 0 {
		t.Error("incomplete flow in loss rates")
	}
}

func TestOracleResolvesUnknownDelivery(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	// Data with unknown link delivery...
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryUnknown))
	// ...then a covering ACK from the server.
	a.AddExchange(exFor(ackSeg(1101), 20_000, llc.DeliveryObserved))
	if a.Stats.ResolvedByOracle != 1 {
		t.Fatalf("resolved = %d, want 1", a.Stats.ResolvedByOracle)
	}
	f := a.Flows()[0]
	if !f.dirs[cliIP].seqs[101].firstResolved {
		t.Error("first transmission not marked resolved")
	}
}

func TestNonCoveringAckDoesNotResolve(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryUnknown))
	a.AddExchange(exFor(ackSeg(101), 20_000, llc.DeliveryObserved)) // covers nothing
	if a.Stats.ResolvedByOracle != 0 {
		t.Error("non-covering ACK resolved a delivery")
	}
}

func TestMonitorOmissionDetected(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	// Client sends two segments; monitors capture only the second.
	// (first: seq 101..1101 — never observed).
	a.AddExchange(exFor(dataSeg(1101, 1000), 10_000, llc.DeliveryObserved))
	// Server ACK covers both: hole of 1000 bytes ⇒ one omitted packet.
	a.AddExchange(exFor(ackSeg(2101), 20_000, llc.DeliveryObserved))
	if a.Stats.MonitorOmissions != 1 {
		t.Errorf("omissions = %d, want 1", a.Stats.MonitorOmissions)
	}
}

func TestRetransmissionWirelessLoss(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	// Original fails at the link layer; TCP retransmits.
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryFailed))
	a.AddExchange(exFor(dataSeg(101, 1000), 300_000, llc.DeliveryObserved))
	if a.Stats.Retransmissions != 1 || a.Stats.WirelessLosses != 1 {
		t.Errorf("stats = %+v", a.Stats)
	}
	rates := a.LossRates(1)
	if len(rates) != 1 {
		t.Fatalf("loss rates = %d", len(rates))
	}
	if rates[0].WirelessLoss != 1 || rates[0].WiredLoss != 0 {
		t.Errorf("split = %+v", rates[0])
	}
	if rates[0].LossRate != 0.5 { // 1 loss / 2 data segments
		t.Errorf("loss rate = %f", rates[0].LossRate)
	}
}

// TestDuplicateObservationCountsOnce feeds the same MAC frame twice (the
// merged trace surfacing one transmission twice) and then a genuine
// retransmission: Fig. 11's denominator is two transmissions, not three.
func TestDuplicateObservationCountsOnce(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryFailed))
	a.AddExchange(exFor(dataSeg(101, 1000), 10_050, llc.DeliveryFailed)) // same MAC seq
	a.AddExchange(exFor(dataSeg(101, 1000), 300_000, llc.DeliveryObserved))
	if a.Stats.Retransmissions != 1 {
		t.Errorf("retransmissions = %d, want 1", a.Stats.Retransmissions)
	}
	rates := a.LossRates(0)
	if len(rates) != 1 {
		t.Fatalf("loss rates = %d", len(rates))
	}
	if rates[0].DataSegs != 2 || rates[0].LossRate != 0.5 {
		t.Errorf("data segs = %d, loss rate = %f; want 2, 0.5", rates[0].DataSegs, rates[0].LossRate)
	}
}

func TestRetransmissionWiredLoss(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	// Link layer delivered the original, yet TCP retransmitted: the drop
	// happened beyond the air.
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryObserved))
	a.AddExchange(exFor(dataSeg(101, 1000), 300_000, llc.DeliveryObserved))
	if a.Stats.WiredLosses != 1 || a.Stats.WirelessLosses != 0 {
		t.Errorf("stats = %+v", a.Stats)
	}
}

func TestRetransmissionAfterOracleResolutionIsWired(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryUnknown))
	a.AddExchange(exFor(ackSeg(1101), 20_000, llc.DeliveryObserved)) // resolves
	a.AddExchange(exFor(dataSeg(101, 1000), 300_000, llc.DeliveryObserved))
	if a.Stats.WiredLosses != 1 {
		t.Errorf("resolved-then-retransmitted should be wired: %+v", a.Stats)
	}
}

func TestUnresolvedUnknownCountsWireless(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	a.AddExchange(exFor(dataSeg(101, 1000), 10_000, llc.DeliveryUnknown))
	a.AddExchange(exFor(dataSeg(101, 1000), 300_000, llc.DeliveryObserved))
	if a.Stats.WirelessLosses != 1 {
		t.Errorf("unresolved unknown delivery should classify wireless: %+v", a.Stats)
	}
}

func TestNonTCPSkipped(t *testing.T) {
	a := NewAnalyzer()
	f := dot80211.NewData(ap, cli, ap, 1, []byte("arp who-has 10.0.0.9"))
	j := &unify.JFrame{UnivUS: 100, Frame: f, Wire: f.Encode(), Valid: true}
	a.AddExchange(&llc.Exchange{
		Attempts: []*llc.Attempt{{Data: j}}, Transmitter: cli,
		Delivery: llc.DeliveryObserved, StartUS: 100, EndUS: 200,
	})
	if a.Stats.NonTCP != 1 || a.Stats.TCPSegments != 0 {
		t.Errorf("stats = %+v", a.Stats)
	}
}

func TestInferredExchangeNoData(t *testing.T) {
	a := NewAnalyzer()
	a.AddExchange(&llc.Exchange{
		Attempts: []*llc.Attempt{{Inferred: true}},
		Delivery: llc.DeliveryInferred, StartUS: 100, EndUS: 200,
	})
	if a.Stats.TCPSegments != 0 || a.Stats.NonTCP != 0 {
		t.Errorf("dataless exchange misprocessed: %+v", a.Stats)
	}
}

func TestMultipleFlowsSeparated(t *testing.T) {
	a := NewAnalyzer()
	handshake(a, 0, 100, 900)
	// Second flow: different client port.
	a.AddExchange(exFor(tcpwire.Segment{
		SrcIP: cliIP, DstIP: srvIP, SrcPort: 5001, DstPort: 80,
		Seq: 7, Flags: tcpwire.FlagSYN,
	}, 50_000, llc.DeliveryObserved))
	if a.Stats.Flows != 2 {
		t.Errorf("flows = %d, want 2", a.Stats.Flows)
	}
}

func TestIntervalMerging(t *testing.T) {
	var set []interval
	set = addInterval(set, 10, 20)
	set = addInterval(set, 30, 40)
	set = addInterval(set, 20, 30) // bridges
	if len(set) != 1 || set[0].lo != 10 || set[0].hi != 40 {
		t.Errorf("merge failed: %+v", set)
	}
	if got := coveredBytes(set, 0, 100); got != 30 {
		t.Errorf("covered = %d, want 30", got)
	}
	if got := coveredBytes(set, 15, 35); got != 20 {
		t.Errorf("clipped covered = %d, want 20", got)
	}
	// Wraparound-safe.
	var w []interval
	w = addInterval(w, 0xfffffff0, 0x10)
	if got := coveredBytes(w, 0xfffffff0, 0x10); got != 0x20 {
		t.Errorf("wrap covered = %d", got)
	}
}
