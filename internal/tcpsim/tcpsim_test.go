package tcpsim

import (
	"testing"
	"testing/quick"

	"repro/internal/dot80211"
	"repro/internal/sim"
	"repro/internal/tcpwire"
)

func TestQuickSeqArithmetic(t *testing.T) {
	f := func(a uint32, d uint16) bool {
		b := a + uint32(d) + 1
		return tcpwire.SeqLess(a, b) && !tcpwire.SeqLess(b, a) && tcpwire.SeqLEQ(a, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pipe couples two endpoints through a lossy, delayed channel.
type pipe struct {
	eng  *sim.Engine
	loss func() bool
	lat  sim.Time
}

func connectPair(eng *sim.Engine, lossProb float64, bytes int64) (*Endpoint, *Endpoint) {
	rng := eng.NewStream(1)
	p := &pipe{eng: eng, lat: 5 * sim.Millisecond,
		loss: func() bool { return rng.Float64() < lossProb }}
	var a, b *Endpoint
	a = NewEndpoint(eng, 1, 1000, func(s tcpwire.Segment) {
		if p.loss() {
			return
		}
		p.eng.After(p.lat, func() { b.OnSegment(s) })
	})
	b = NewEndpoint(eng, 2, 80, func(s tcpwire.Segment) {
		if p.loss() {
			return
		}
		p.eng.After(p.lat, func() { a.OnSegment(s) })
	})
	b.Listen(0)
	eng.After(0, func() { a.Connect(2, 80, bytes) })
	return a, b
}

func TestLosslessTransferCompletes(t *testing.T) {
	eng := sim.NewEngine(1)
	a, b := connectPair(eng, 0, 100_000)
	var aOK, bOK bool
	a.Done = func(ok bool) { aOK = ok }
	b.Done = func(ok bool) { bOK = ok }
	eng.Run(60 * sim.Second)
	if !aOK || !bOK {
		t.Fatalf("connection did not complete: a=%v b=%v", aOK, bOK)
	}
	if a.Stats.Retransmits != 0 {
		t.Errorf("lossless path had %d retransmits", a.Stats.Retransmits)
	}
	// 100 KB + SYN + FIN acked.
	if a.Stats.BytesAcked < 100_000 {
		t.Errorf("BytesAcked = %d", a.Stats.BytesAcked)
	}
	if !a.Established() || !b.Established() {
		t.Error("Established not reported")
	}
}

func TestLossyTransferRecovers(t *testing.T) {
	eng := sim.NewEngine(7)
	a, b := connectPair(eng, 0.05, 200_000)
	var aOK bool
	a.Done = func(ok bool) { aOK = ok }
	eng.Run(300 * sim.Second)
	if !aOK {
		t.Fatal("lossy transfer did not complete")
	}
	if a.Stats.Retransmits == 0 {
		t.Error("5% loss but no retransmissions recorded")
	}
	_ = b
}

func TestRTTEstimation(t *testing.T) {
	eng := sim.NewEngine(2)
	a, _ := connectPair(eng, 0, 50_000)
	eng.Run(60 * sim.Second)
	// Path RTT is 2*5 ms; accept generous smoothing error.
	if srtt := a.SRTTUS(); srtt < 8_000 || srtt > 20_000 {
		t.Errorf("SRTT = %.0f µs, want ≈10000", srtt)
	}
}

func TestFastRetransmitTriggers(t *testing.T) {
	// Drop exactly one data segment; the following data causes dup ACKs
	// and a fast retransmit well before the RTO.
	eng := sim.NewEngine(3)
	dropped := false
	var a, b *Endpoint
	lat := 5 * sim.Millisecond
	a = NewEndpoint(eng, 1, 1000, func(s tcpwire.Segment) {
		if !dropped && s.PayloadLen == tcpwire.MSS && s.Seq != 0 && !s.IsSYN() {
			dropped = true
			return
		}
		eng.After(lat, func() { b.OnSegment(s) })
	})
	b = NewEndpoint(eng, 2, 80, func(s tcpwire.Segment) {
		eng.After(lat, func() { a.OnSegment(s) })
	})
	b.Listen(0)
	var done bool
	a.Done = func(ok bool) { done = ok }
	eng.After(0, func() { a.Connect(2, 80, 20*tcpwire.MSS) })
	eng.Run(120 * sim.Second)
	if !done {
		t.Fatal("transfer did not complete")
	}
	if a.Stats.FastRetransmit == 0 {
		t.Error("single mid-stream loss should trigger fast retransmit")
	}
}

func TestConnectFailsWithoutPeer(t *testing.T) {
	eng := sim.NewEngine(4)
	a := NewEndpoint(eng, 1, 1000, func(s tcpwire.Segment) {}) // black hole
	var done, ok bool
	a.Done = func(o bool) { done, ok = true, o }
	eng.After(0, func() { a.Connect(2, 80, 1000) })
	eng.Run(600 * sim.Second)
	if !done || ok {
		t.Errorf("black-holed SYN: done=%v ok=%v, want done && !ok", done, ok)
	}
}

func TestBidirectionalSimultaneousData(t *testing.T) {
	// Server also sends data (Listen with bytes): web-response shape.
	eng := sim.NewEngine(5)
	rng := eng.NewStream(2)
	lat := 3 * sim.Millisecond
	var a, b *Endpoint
	mk := func(peer **Endpoint) func(tcpwire.Segment) {
		return func(s tcpwire.Segment) {
			if rng.Float64() < 0.02 {
				return
			}
			eng.After(lat, func() { (*peer).OnSegment(s) })
		}
	}
	a = NewEndpoint(eng, 1, 1000, mk(&b))
	b = NewEndpoint(eng, 2, 80, mk(&a))
	b.Listen(300_000) // server pushes 300 KB back
	var aOK, bOK bool
	a.Done = func(ok bool) { aOK = ok }
	b.Done = func(ok bool) { bOK = ok }
	eng.After(0, func() { a.Connect(2, 80, 5_000) })
	eng.Run(600 * sim.Second)
	if !aOK || !bOK {
		t.Fatalf("bidirectional transfer incomplete: a=%v b=%v", aOK, bOK)
	}
	if b.Stats.BytesAcked < 300_000 {
		t.Errorf("server BytesAcked = %d", b.Stats.BytesAcked)
	}
}

func TestWiredNetForwardAndTap(t *testing.T) {
	eng := sim.NewEngine(6)
	w := NewWiredNet(eng)
	w.LossProb = 0
	dst := dot80211.MAC{0xee, 0, 0, 0, 0, 1}
	var got []tcpwire.Segment
	w.Attach(dst, func(s tcpwire.Segment) { got = append(got, s) })
	var tapped, tappedDropped int
	w.Tap = func(seg tcpwire.Segment, src, d dot80211.MAC, delivered bool) {
		tapped++
		if !delivered {
			tappedDropped++
		}
	}
	w.Forward(dot80211.MAC{1}, dst, tcpwire.Segment{Seq: 42}, false)
	w.Forward(dot80211.MAC{1}, dot80211.MAC{9}, tcpwire.Segment{Seq: 43}, false) // unknown host
	eng.Run(sim.Second)
	if len(got) != 1 || got[0].Seq != 42 {
		t.Errorf("delivered = %+v", got)
	}
	if tapped != 2 || tappedDropped != 1 {
		t.Errorf("tap saw %d segments (%d dropped), want 2 (1 dropped)", tapped, tappedDropped)
	}
	if w.Stats.Forwarded != 1 || w.Stats.Dropped != 1 {
		t.Errorf("stats = %+v", w.Stats)
	}
}

func TestWiredNetLatencyProfiles(t *testing.T) {
	eng := sim.NewEngine(7)
	w := NewWiredNet(eng)
	w.LossProb = 0
	dst := dot80211.MAC{0xee, 0, 0, 0, 0, 1}
	var localAt, remoteAt sim.Time
	w.Attach(dst, func(s tcpwire.Segment) {
		if s.Seq == 1 {
			localAt = eng.Now()
		} else {
			remoteAt = eng.Now()
		}
	})
	w.Forward(dot80211.MAC{1}, dst, tcpwire.Segment{Seq: 1}, false)
	w.Forward(dot80211.MAC{1}, dst, tcpwire.Segment{Seq: 2}, true)
	eng.Run(sim.Second)
	if localAt == 0 || remoteAt == 0 {
		t.Fatal("segments not delivered")
	}
	if remoteAt <= localAt {
		t.Error("remote path should be slower than local")
	}
}
