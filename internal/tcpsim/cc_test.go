package tcpsim

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/dot80211"
	"repro/internal/sim"
	"repro/internal/tcpwire"
)

// connectPairCC is connectPair with a congestion controller installed on
// the sender.
func connectPairCC(eng *sim.Engine, algo string, lossProb float64, bytes int64) (*Endpoint, *Endpoint) {
	a, b := connectPairIdle(eng, lossProb)
	a.SetCongestionControl(cc.MustNew(algo, tcpwire.MSS))
	b.Listen(0)
	eng.After(0, func() { a.Connect(2, 80, bytes) })
	return a, b
}

// connectPairIdle builds the lossy pipe without starting the connection.
func connectPairIdle(eng *sim.Engine, lossProb float64) (*Endpoint, *Endpoint) {
	rng := eng.NewStream(1)
	lat := 5 * sim.Millisecond
	var a, b *Endpoint
	a = NewEndpoint(eng, 1, 1000, func(s tcpwire.Segment) {
		if rng.Float64() < lossProb {
			return
		}
		eng.After(lat, func() { b.OnSegment(s) })
	})
	b = NewEndpoint(eng, 2, 80, func(s tcpwire.Segment) {
		if rng.Float64() < lossProb {
			return
		}
		eng.After(lat, func() { a.OnSegment(s) })
	})
	return a, b
}

func TestCCTransfersComplete(t *testing.T) {
	for _, algo := range []string{cc.Fixed, cc.Reno, cc.Cubic, cc.BBR} {
		for _, loss := range []float64{0, 0.03} {
			eng := sim.NewEngine(11)
			a, _ := connectPairCC(eng, algo, loss, 300_000)
			var ok bool
			a.Done = func(o bool) { ok = o }
			eng.Run(600 * sim.Second)
			if !ok {
				t.Errorf("%s at loss %.2f: transfer did not complete", algo, loss)
			}
			if a.CCName() != algo {
				t.Errorf("CCName = %q, want %q", a.CCName(), algo)
			}
		}
	}
}

func TestCCWindowGrowsBeyondFixed(t *testing.T) {
	// On a clean path Reno/CUBIC/BBR should open the window past the fixed
	// 8-segment flight; the fixed controller must not.
	maxFlight := func(algo string) uint32 {
		eng := sim.NewEngine(12)
		a, _ := connectPairCC(eng, algo, 0, 2_000_000)
		var peak uint32
		orig := a.send
		a.send = func(s tcpwire.Segment) {
			if f := a.sndNxt - a.sndUna; f > peak {
				peak = f
			}
			orig(s)
		}
		eng.Run(600 * sim.Second)
		return peak / tcpwire.MSS
	}
	if f := maxFlight(cc.Fixed); f > window {
		t.Errorf("fixed flight peaked at %d segments, cap is %d", f, window)
	}
	for _, algo := range []string{cc.Reno, cc.Cubic, cc.BBR} {
		if f := maxFlight(algo); f <= window {
			t.Errorf("%s flight never exceeded the fixed window (peak %d)", algo, f)
		}
	}
}

func TestBBREndpointPacesSends(t *testing.T) {
	// Once BBR has a path model, its data transmissions are spread out
	// instead of released as back-to-back window bursts.
	eng := sim.NewEngine(13)
	var sendTimes []int64
	lat := 5 * sim.Millisecond
	var a, b *Endpoint
	a = NewEndpoint(eng, 1, 1000, func(s tcpwire.Segment) {
		if s.PayloadLen > 0 {
			sendTimes = append(sendTimes, eng.Now().US64())
		}
		eng.After(lat, func() { b.OnSegment(s) })
	})
	b = NewEndpoint(eng, 2, 80, func(s tcpwire.Segment) {
		eng.After(lat, func() { a.OnSegment(s) })
	})
	a.SetCongestionControl(cc.MustNew(cc.BBR, tcpwire.MSS))
	b.Listen(0)
	eng.After(0, func() { a.Connect(2, 80, 1_000_000) })
	eng.Run(600 * sim.Second)

	if len(sendTimes) < 100 {
		t.Fatalf("only %d data sends", len(sendTimes))
	}
	// Count zero-gap (same-instant burst) consecutive sends in the second
	// half of the transfer, after the model converges.
	half := sendTimes[len(sendTimes)/2:]
	bursts := 0
	for i := 1; i < len(half); i++ {
		if half[i] == half[i-1] {
			bursts++
		}
	}
	if frac := float64(bursts) / float64(len(half)); frac > 0.2 {
		t.Errorf("%.0f%% of steady-state BBR sends were same-instant bursts; pacing absent", 100*frac)
	}
}

func TestWiredQueueDropsAndDelays(t *testing.T) {
	eng := sim.NewEngine(14)
	w := NewWiredNet(eng)
	w.LossProb = 0
	w.QueuePkts = 4
	w.BottleneckBytesPerUS = 1.25 // 10 Mbps: tcpwire.MSS ≈ 1187 µs serialization
	dst := dot80211.MAC{0xee, 0, 0, 0, 0, 1}
	var arrivals []sim.Time
	w.Attach(dst, func(s tcpwire.Segment) { arrivals = append(arrivals, eng.Now()) })

	// Burst 8 full-size segments at t=0 into a 4-packet queue.
	for i := 0; i < 8; i++ {
		w.Forward(dot80211.MAC{1}, dst, tcpwire.Segment{Seq: uint32(i), PayloadLen: tcpwire.MSS}, false)
	}
	eng.Run(sim.Second)

	if w.Stats.QueueDrops == 0 {
		t.Error("no tail drops from an oversized burst")
	}
	if w.Stats.Forwarded+w.Stats.Dropped != 8 {
		t.Errorf("accounting: fwd=%d drop=%d", w.Stats.Forwarded, w.Stats.Dropped)
	}
	if len(arrivals) < 2 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// Queued packets serialize one after another: consecutive arrivals at
	// least ~one serialization apart (modulo jitter).
	ser := sim.Time(float64(tcpwire.HeaderLen+tcpwire.MSS) / w.BottleneckBytesPerUS * float64(sim.Microsecond))
	for i := 1; i < len(arrivals); i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap < ser/2 {
			t.Errorf("arrival gap %d = %v, want ≥ half the serialization %v", i, gap, ser)
		}
	}
	if w.qDepth[dst] != 0 {
		t.Errorf("queue depth did not drain: %d", w.qDepth[dst])
	}
}

func TestWiredQueueDisabledMatchesLegacy(t *testing.T) {
	// QueuePkts = 0 must leave the event pattern of the original path
	// untouched: same rng draws, same delivery times.
	run := func(queue int) []sim.Time {
		eng := sim.NewEngine(15)
		w := NewWiredNet(eng)
		w.LossProb = 0.1
		w.QueuePkts = queue
		dst := dot80211.MAC{0xee, 0, 0, 0, 0, 2}
		var at []sim.Time
		w.Attach(dst, func(s tcpwire.Segment) { at = append(at, eng.Now()) })
		for i := 0; i < 50; i++ {
			w.Forward(dot80211.MAC{1}, dst, tcpwire.Segment{Seq: uint32(i)}, i%2 == 0)
		}
		eng.Run(sim.Second)
		return at
	}
	a := run(0)
	b := run(0)
	if len(a) != len(b) {
		t.Fatalf("legacy path nondeterministic: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("legacy delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}
