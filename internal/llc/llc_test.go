package llc

import (
	"testing"

	"repro/internal/dot80211"
	"repro/internal/unify"
)

var (
	sta = dot80211.MAC{2, 0, 0, 0, 0, 1}
	ap  = dot80211.MAC{0xaa, 0, 0, 0, 0, 1}
)

// jf wraps a frame into a valid jframe at time us.
func jf(f dot80211.Frame, us int64, rate dot80211.Rate) *unify.JFrame {
	return &unify.JFrame{
		UnivUS: us, Frame: f, Wire: f.Encode(), Rate: rate, Channel: 1, Valid: true,
		Instances: []unify.Instance{{Radio: 0, UnivUS: us, FCSOK: true}},
	}
}

// dataJF builds a unicast data jframe with correct Duration.
func dataJF(tx, rx dot80211.MAC, seq uint16, us int64, retry bool) *unify.JFrame {
	f := dot80211.NewData(rx, tx, ap, seq, []byte{byte(seq), byte(us)})
	f.Duration = dot80211.NAVForDataExchange(dot80211.Rate11Mbps, dot80211.LongPreamble)
	if retry {
		f.Flags |= dot80211.FlagRetry
	}
	return jf(f, us, dot80211.Rate11Mbps)
}

// ackJF builds the matching ACK jframe: SIFS after the data frame ends.
func ackJF(dataTx dot80211.MAC, data *unify.JFrame) *unify.JFrame {
	return jf(dot80211.NewAck(dataTx), data.EndUS()+dot80211.SIFS, dot80211.Rate2Mbps)
}

// runSeq processes jframes and returns exchanges in completion order.
func runSeq(t *testing.T, js ...*unify.JFrame) ([]*Exchange, *Stats) {
	t.Helper()
	r := NewReconstructor()
	var out []*Exchange
	for _, j := range js {
		r.Process(j)
		out = append(out, r.Take()...)
	}
	return append(out, r.Flush()...), &r.Stats
}

func TestSimpleExchangeWithAck(t *testing.T) {
	d := dataJF(sta, ap, 10, 1000, false)
	a := ackJF(sta, d)
	exs, st := runSeq(t, d, a)
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	ex := exs[0]
	if ex.Delivery != DeliveryObserved {
		t.Errorf("delivery = %v, want observed", ex.Delivery)
	}
	if len(ex.Attempts) != 1 || !ex.Attempts[0].Acked() {
		t.Error("attempt structure wrong")
	}
	if ex.Transmitter != sta || ex.Receiver != ap || ex.Seq != 10 {
		t.Error("addressing wrong")
	}
	if st.Attempts != 1 || st.Exchanges != 1 || st.InferredAttempts != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRetransmissionsCoalesce(t *testing.T) {
	d1 := dataJF(sta, ap, 20, 1000, false)
	d2 := dataJF(sta, ap, 20, 5000, true) // retry, same seq (R2)
	a := ackJF(sta, d2)
	exs, _ := runSeq(t, d1, d2, a)
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges, want 1", len(exs))
	}
	ex := exs[0]
	if len(ex.Attempts) != 2 {
		t.Fatalf("attempts = %d, want 2", len(ex.Attempts))
	}
	if ex.Retransmissions() != 1 {
		t.Error("retransmission count")
	}
	if ex.Delivery != DeliveryObserved {
		t.Errorf("delivery = %v", ex.Delivery)
	}
	if ex.Attempts[0].Acked() || !ex.Attempts[1].Acked() {
		t.Error("ACK attached to wrong attempt")
	}
}

func TestSequenceAdvanceClosesExchange(t *testing.T) {
	d1 := dataJF(sta, ap, 30, 1000, false) // no ACK observed
	d2 := dataJF(sta, ap, 31, 9000, false) // R3: new exchange
	a2 := ackJF(sta, d2)
	exs, _ := runSeq(t, d1, d2, a2)
	if len(exs) != 2 {
		t.Fatalf("got %d exchanges, want 2", len(exs))
	}
	if exs[0].Delivery != DeliveryUnknown {
		t.Errorf("first exchange delivery = %v, want unknown", exs[0].Delivery)
	}
	if exs[1].Delivery != DeliveryObserved {
		t.Errorf("second exchange delivery = %v", exs[1].Delivery)
	}
}

func TestBroadcastIsR1(t *testing.T) {
	f := dot80211.NewData(dot80211.Broadcast, ap, ap, 40, []byte("arp"))
	exs, st := runSeq(t, jf(f, 1000, dot80211.Rate1Mbps))
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	if !exs[0].Broadcast || exs[0].Delivery != DeliveryBroadcast {
		t.Error("broadcast exchange misclassified")
	}
	if st.Attempts != 1 {
		t.Error("broadcast attempt not counted")
	}
}

func TestBeaconIsBroadcastExchange(t *testing.T) {
	b := dot80211.NewBeacon(ap, 50, 12345, "net")
	exs, _ := runSeq(t, jf(b, 1000, dot80211.Rate1Mbps))
	if len(exs) != 1 || !exs[0].Broadcast {
		t.Error("beacon should form a broadcast exchange")
	}
}

func TestCTSToSelfAttaches(t *testing.T) {
	cts := dot80211.NewCTSToSelf(sta, dot80211.NAVForCTSToSelf(100, dot80211.Rate54Mbps, dot80211.LongPreamble))
	ctsJ := jf(cts, 1000, dot80211.Rate2Mbps)
	d := dataJF(sta, ap, 60, ctsJ.EndUS()+dot80211.SIFS, false)
	a := ackJF(sta, d)
	exs, _ := runSeq(t, ctsJ, d, a)
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	at := exs[0].Attempts[0]
	if at.CTS == nil {
		t.Fatal("CTS-to-self not attached to the attempt")
	}
	if at.StartUS != 1000 {
		t.Error("attempt start should be the CTS time")
	}
}

func TestCTSTooEarlyNotAttached(t *testing.T) {
	cts := dot80211.NewCTSToSelf(sta, 500)
	ctsJ := jf(cts, 1000, dot80211.Rate2Mbps)
	d := dataJF(sta, ap, 61, ctsJ.EndUS()+5_000, false) // 5 ms later: unrelated
	a := ackJF(sta, d)
	exs, _ := runSeq(t, ctsJ, d, a)
	if exs[0].Attempts[0].CTS != nil {
		t.Error("stale CTS attached despite timing mismatch")
	}
}

func TestAckTimingWindowRejectsLateAck(t *testing.T) {
	// An ACK long after the Duration window must not bind to the data
	// frame (it belongs to some unobserved later transmission).
	d := dataJF(sta, ap, 70, 1000, false)
	late := jf(dot80211.NewAck(sta), d.EndUS()+10_000, dot80211.Rate2Mbps)
	d2 := dataJF(sta, ap, 71, 40_000, false) // closes first exchange
	exs, st := runSeq(t, d, late, d2)
	if exs[0].Attempts[0].Acked() {
		t.Error("late ACK incorrectly bound to attempt")
	}
	if st.OrphanAcks != 1 {
		t.Errorf("orphan acks = %d, want 1", st.OrphanAcks)
	}
	// The orphan + seq advance ⇒ first exchange delivered by inference.
	if exs[0].Delivery != DeliveryInferred {
		t.Errorf("delivery = %v, want inferred", exs[0].Delivery)
	}
}

func TestMissingDataInferredFromOrphanAck(t *testing.T) {
	// Sender's data frame at seq 80 is observed; its retry is NOT; the
	// ACK for the retry is. Then seq 81 appears. The orphan ACK must
	// resolve exchange 80 as delivered with an inferred attempt (§5.1).
	d1 := dataJF(sta, ap, 80, 1000, false)
	orphan := jf(dot80211.NewAck(sta), 8_000, dot80211.Rate2Mbps)
	d2 := dataJF(sta, ap, 81, 20_000, false)
	a2 := ackJF(sta, d2)
	exs, st := runSeq(t, d1, orphan, d2, a2)
	if len(exs) != 2 {
		t.Fatalf("got %d exchanges, want 2", len(exs))
	}
	first := exs[0]
	if first.Delivery != DeliveryInferred {
		t.Errorf("delivery = %v, want inferred", first.Delivery)
	}
	if len(first.Attempts) != 2 || !first.Attempts[1].Inferred {
		t.Error("inferred attempt missing")
	}
	if st.InferredAttempts != 1 {
		t.Errorf("inferred attempts = %d", st.InferredAttempts)
	}
	if !first.Inferred {
		t.Error("exchange not marked inferred")
	}
}

func TestSequenceGapFlushes(t *testing.T) {
	d1 := dataJF(sta, ap, 90, 1000, false)
	d2 := dataJF(sta, ap, 95, 10_000, false) // R4: gap of 5
	exs, st := runSeq(t, d1, d2)
	if len(exs) != 2 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	if exs[0].Delivery != DeliveryUnknown {
		t.Error("gap-closed exchange should stay unknown")
	}
	if st.InferredAttempts != 0 {
		t.Error("R4 makes no inferences")
	}
}

func TestSeqGapFlushesOrphanUnassigned(t *testing.T) {
	d1 := dataJF(sta, ap, 100, 1000, false)
	orphan := jf(dot80211.NewAck(sta), 9_000, dot80211.Rate2Mbps)
	d2 := dataJF(sta, ap, 105, 20_000, false) // gap
	exs, st := runSeq(t, d1, orphan, d2)
	if st.FlushedUnassigned != 1 {
		t.Errorf("flushed = %d, want 1", st.FlushedUnassigned)
	}
	for _, ex := range exs {
		if ex.Inferred {
			t.Error("R4 path must not infer")
		}
	}
}

func TestRetryExhaustionFails(t *testing.T) {
	var js []*unify.JFrame
	for i := 0; i < 7; i++ {
		js = append(js, dataJF(sta, ap, 110, int64(1000+i*3000), i > 0))
	}
	js = append(js, dataJF(sta, ap, 111, 60_000, false)) // next exchange
	exs, _ := runSeq(t, js...)
	if len(exs) < 1 {
		t.Fatal("no exchanges")
	}
	if exs[0].Delivery != DeliveryFailed {
		t.Errorf("delivery = %v, want failed after 7 silent attempts", exs[0].Delivery)
	}
	if len(exs[0].Attempts) != 7 {
		t.Errorf("attempts = %d", len(exs[0].Attempts))
	}
}

func TestInterleavedSenders(t *testing.T) {
	sta2 := dot80211.MAC{2, 0, 0, 0, 0, 2}
	dA := dataJF(sta, ap, 1, 1000, false)
	dB := dataJF(sta2, ap, 500, 1500, false)
	aA := ackJF(sta, dA)
	aB := ackJF(sta2, dB)
	exs, _ := runSeq(t, dA, dB, aA, aB)
	if len(exs) != 2 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	for _, ex := range exs {
		if ex.Delivery != DeliveryObserved {
			t.Errorf("sender %v delivery = %v", ex.Transmitter, ex.Delivery)
		}
	}
}

func TestExchangeTimeout(t *testing.T) {
	d1 := dataJF(sta, ap, 120, 1000, false)
	// A frame from another sender 600 ms later advances time enough to
	// expire sta's exchange.
	other := dot80211.MAC{2, 0, 0, 0, 0, 3}
	d2 := dataJF(other, ap, 7, 601_000, false)
	exs, _ := runSeq(t, d1, d2)
	found := false
	for _, ex := range exs {
		if ex.Transmitter == sta {
			found = true
			if ex.Delivery != DeliveryUnknown {
				t.Errorf("timed-out exchange delivery = %v", ex.Delivery)
			}
		}
	}
	if !found {
		t.Error("timed-out exchange never emitted")
	}
}

func TestUnifiedAckOnlyExchange(t *testing.T) {
	// A lone orphan ACK with no surrounding traffic becomes a fully
	// inferred exchange at flush.
	orphan := jf(dot80211.NewAck(sta), 5_000, dot80211.Rate2Mbps)
	exs, st := runSeq(t, orphan)
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	if !exs[0].Inferred || exs[0].Delivery != DeliveryInferred {
		t.Error("lone ACK should yield an inferred exchange")
	}
	if st.InferredExchanges != 1 {
		t.Errorf("inferred exchanges = %d", st.InferredExchanges)
	}
}

// TestInferenceStepsTogether drives both resolveOrphan branches — an orphan
// ACK bound to an open exchange, and one that becomes a fully inferred
// exchange — and checks that every inference counts one inferred attempt and
// one inferred exchange. With Exchanges ≤ Attempts that makes the §5 exchange
// rate at least the attempt rate, by construction.
func TestInferenceStepsTogether(t *testing.T) {
	sta2 := dot80211.MAC{2, 0, 0, 0, 0, 2}
	r := NewReconstructor()
	var exs []*Exchange
	for _, j := range []*unify.JFrame{
		dataJF(sta, ap, 80, 1000, false),
		jf(dot80211.NewAck(sta), 8_000, dot80211.Rate2Mbps), // binds to seq 80 once 81 appears
		dataJF(sta, ap, 81, 20_000, false),
		jf(dot80211.NewAck(sta2), 30_000, dot80211.Rate2Mbps), // sta2 has no exchange
	} {
		r.Process(j)
		exs = append(exs, r.Take()...)
		if st := r.Stats; st.InferredAttempts != st.InferredExchanges {
			t.Fatalf("after jframe at %d µs: %d inferred attempts, %d inferred exchanges", j.UnivUS, st.InferredAttempts, st.InferredExchanges)
		}
	}
	exs = append(exs, r.Flush()...)
	st := r.Stats
	if st.InferredAttempts != 2 || st.InferredExchanges != 2 {
		t.Fatalf("stats = %+v, want 2 inferred attempts and 2 inferred exchanges", st)
	}
	var bound, whole bool
	for _, ex := range exs {
		switch {
		case ex.Transmitter == sta && ex.Seq == 80:
			bound = ex.Inferred && len(ex.Attempts) == 2 && ex.Attempts[1].Inferred && !ex.Attempts[0].Inferred
		case ex.Transmitter == sta2:
			whole = ex.Inferred && len(ex.Attempts) == 1 && ex.Attempts[0].Inferred
		}
	}
	if !bound || !whole {
		t.Errorf("bound branch taken %v, fully inferred branch taken %v", bound, whole)
	}
	inf := float64(st.InferredExchanges)
	if inf/float64(st.Exchanges) < inf/float64(st.Attempts) {
		t.Errorf("exchange rate below attempt rate: %+v", st)
	}
}

func TestInvalidJFramesIgnored(t *testing.T) {
	bad := &unify.JFrame{UnivUS: 1000, Valid: false}
	d := dataJF(sta, ap, 130, 2000, false)
	a := ackJF(sta, d)
	exs, st := runSeq(t, bad, d, a)
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	if st.JFrames != 2 {
		t.Errorf("processed jframes = %d, want 2 valid", st.JFrames)
	}
}

func TestDeliveryStrings(t *testing.T) {
	for d, want := range map[Delivery]string{
		DeliveryUnknown: "unknown", DeliveryObserved: "delivered",
		DeliveryInferred: "delivered-inferred", DeliveryBroadcast: "broadcast",
		DeliveryFailed: "failed",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}

func TestExchangeDataAccessor(t *testing.T) {
	d := dataJF(sta, ap, 140, 1000, false)
	a := ackJF(sta, d)
	exs, _ := runSeq(t, d, a)
	if exs[0].Data() != d {
		t.Error("Data() should return the first captured data jframe")
	}
	empty := &Exchange{Attempts: []*Attempt{{Inferred: true}}}
	if empty.Data() != nil {
		t.Error("all-inferred exchange has no data jframe")
	}
}

func TestRTSCTSExchangeReconstruction(t *testing.T) {
	// RTS → CTS → DATA → ACK: the full four-frame exchange of §2,
	// reassembled into one attempt.
	rts := dot80211.NewRTS(ap, sta, 500)
	rtsJ := jf(rts, 1000, dot80211.Rate2Mbps)
	cts := dot80211.NewCTSToSelf(sta, 400) // CTS response addressed to the RTS sender
	ctsJ := jf(cts, rtsJ.EndUS()+dot80211.SIFS, dot80211.Rate2Mbps)
	d := dataJF(sta, ap, 200, ctsJ.EndUS()+dot80211.SIFS, false)
	a := ackJF(sta, d)
	exs, _ := runSeq(t, rtsJ, ctsJ, d, a)
	if len(exs) != 1 {
		t.Fatalf("got %d exchanges", len(exs))
	}
	at := exs[0].Attempts[0]
	if at.RTS == nil || at.CTS == nil {
		t.Fatalf("RTS/CTS not attached: rts=%v cts=%v", at.RTS != nil, at.CTS != nil)
	}
	if at.StartUS != 1000 {
		t.Errorf("attempt start = %d, want the RTS time", at.StartUS)
	}
	if exs[0].Delivery != DeliveryObserved {
		t.Errorf("delivery = %v", exs[0].Delivery)
	}
}

func TestStaleRTSExpires(t *testing.T) {
	rts := dot80211.NewRTS(ap, sta, 100)
	rtsJ := jf(rts, 1000, dot80211.Rate2Mbps)
	d := dataJF(sta, ap, 201, 50_000, false) // far beyond the RTS reservation
	a := ackJF(sta, d)
	exs, _ := runSeq(t, rtsJ, d, a)
	if exs[0].Attempts[0].RTS != nil {
		t.Error("stale RTS attached to unrelated data")
	}
}
