package llc

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// walkProcess is Process as it was before the deadline heaps: it expires by
// walking every live sender (walkExpire) and does not keep the heaps. It is
// the oracle the differential tests hold Process to.
func (r *Reconstructor) walkProcess(j *unify.JFrame) {
	if !j.Valid {
		return
	}
	r.Stats.JFrames++
	r.now = j.UnivUS
	r.walkExpire()
	r.handle(j)
}

// reserved reports whether the medium reservation a pending RTS/CTS made
// still holds at now: its Duration field counts from the frame's end.
func reserved(j *unify.JFrame, now int64) bool {
	return now <= j.EndUS()+int64(j.Frame.Duration)+ackSlackUS
}

// walkExpire is the full-map expire: every sender's clauses, every call.
func (r *Reconstructor) walkExpire() {
	wm := r.now
	for tx, ss := range r.senders {
		if ss.open != nil && r.now > ss.openDeadline {
			ss.open = nil
		}
		if ss.cts != nil && !reserved(ss.cts, r.now) {
			clearPending(&ss.cts)
		}
		if ss.rts != nil && !reserved(ss.rts, r.now) {
			clearPending(&ss.rts)
		}
		if ss.orphanAck != nil && ss.cur == nil && r.now-ss.orphanAck.UnivUS > ExchangeTimeoutUS {
			r.resolveOrphan(ss, 0)
		}
		if ss.cur != nil && r.now > ss.timeoutUS() {
			r.closeExchange(ss, DeliveryUnknown, ss.timeoutUS())
		}
		if ss.cur == nil && ss.orphanAck == nil && ss.cts == nil && ss.rts == nil && ss.open == nil &&
			r.now-ss.lastSeen > ExchangeTimeoutUS {
			delete(r.senders, tx)
			continue
		}
		if ss.cur != nil {
			if s := ss.timeoutUS(); s < wm {
				wm = s
			}
		}
		if ss.orphanAck != nil {
			if s := ss.orphanAck.UnivUS; s < wm {
				wm = s
			}
		}
	}
	r.watermark = wm
}

// renderFrame names a jframe by identity and stamp; both reconstructors of
// a differential run see the same jframe objects.
func renderFrame(j *unify.JFrame) string {
	if j == nil {
		return "-"
	}
	return fmt.Sprintf("%p@%d", j, j.UnivUS)
}

// renderExchanges renders exchanges field by field, sorted, so two
// reconstructors that emit the same exchanges in a different order agree.
func renderExchanges(exs []*Exchange) []string {
	out := make([]string, len(exs))
	for i, ex := range exs {
		var b strings.Builder
		fmt.Fprintf(&b, "close=%d start=%d end=%d tx=%v rx=%v seq=%d bcast=%v %v inferred=%v",
			ex.CloseUS, ex.StartUS, ex.EndUS, ex.Transmitter, ex.Receiver, ex.Seq, ex.Broadcast, ex.Delivery, ex.Inferred)
		for _, a := range ex.Attempts {
			fmt.Fprintf(&b, " [rts=%s cts=%s data=%s ack=%s tx=%v rx=%v seq=%d/%v retry=%v %d-%d inferred=%v]",
				renderFrame(a.RTS), renderFrame(a.CTS), renderFrame(a.Data), renderFrame(a.Ack),
				a.Transmitter, a.Receiver, a.Seq, a.HasSeq, a.Retry, a.StartUS, a.EndUS, a.Inferred)
		}
		out[i] = b.String()
	}
	slices.Sort(out)
	return out
}

// differential feeds one jframe stream to a heap-expiring reconstructor and
// to the walking oracle, and after every jframe requires the same
// watermark, the same exchanges taken and the same stats; then the same
// from Flush. next returns nil at the end of the stream; done is called on
// each jframe once both have seen it.
func differential(t *testing.T, label string, next func() *unify.JFrame, done func(*unify.JFrame)) {
	t.Helper()
	heap, walk := NewReconstructor(), NewReconstructor()
	compare := func(step int, got, want []*Exchange) {
		t.Helper()
		g, w := renderExchanges(got), renderExchanges(want)
		if !slices.Equal(g, w) {
			t.Fatalf("%s: step %d: exchanges differ:\nheap %q\nwalk %q", label, step, g, w)
		}
		if heap.Stats != walk.Stats {
			t.Fatalf("%s: step %d: stats differ: heap %+v, walk %+v", label, step, heap.Stats, walk.Stats)
		}
		for _, ex := range got {
			ex.Release()
		}
		for _, ex := range want {
			ex.Release()
		}
	}
	step, due := 0, 0
	for j := next(); j != nil; j = next() {
		heap.Process(j)
		walk.walkProcess(j)
		if hw, ww := heap.Watermark(), walk.Watermark(); hw != ww {
			t.Fatalf("%s: step %d (jframe at %d µs): watermark heap %d, walk %d", label, step, j.UnivUS, hw, ww)
		}
		got, want := heap.Take(), walk.Take()
		due += len(want)
		compare(step, got, want)
		if len(heap.senders) != len(walk.senders) {
			t.Fatalf("%s: step %d: %d live senders, walk keeps %d", label, step, len(heap.senders), len(walk.senders))
		}
		done(j)
		step++
	}
	compare(step, heap.Flush(), walk.Flush())
	if walk.Stats.Exchanges == 0 || walk.Stats.JFrames == 0 {
		t.Fatalf("%s: empty run: %+v", label, walk.Stats)
	}
	t.Logf("%s: %d jframes, %d exchanges (%d taken before Flush), %d orphan ACKs",
		label, step, walk.Stats.Exchanges, due, walk.Stats.OrphanAcks)
}

// thinTraces re-encodes traces keeping each record with probability 0.95,
// each radio drawing from its own generator: capture loss that leaves
// orphan ACKs and unacknowledged data behind.
func thinTraces(t *testing.T, traces map[int32]*bytes.Buffer, seed int64) map[int32][]byte {
	t.Helper()
	out := make(map[int32][]byte, len(traces))
	for radio, buf := range traces {
		rng := rand.New(rand.NewSource(seed<<20 ^ int64(radio)))
		var kept bytes.Buffer
		w := tracefile.NewWriter(&kept)
		rd := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if rng.Float64() < 0.05 {
				continue
			}
			if err := w.WriteRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out[radio] = kept.Bytes()
	}
	return out
}

// TestHeapExpireMatchesWalk holds the deadline heaps to the full walk over
// the unified streams of the default building and of a thinned one: at
// every jframe the same watermark, exchanges and stats.
func TestHeapExpireMatchesWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates whole buildings")
	}
	thinned := scenario.Default()
	thinned.Pods, thinned.APs, thinned.Clients = 6, 6, 10
	thinned.Day = 30 * sim.Second
	for _, tc := range []struct {
		name string
		cfg  scenario.Config
		thin bool
	}{
		{"default", scenario.Default(), false},
		{"thinned", thinned, true},
	} {
		out, err := scenario.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw := make(map[int32][]byte, len(out.Traces))
		for r, b := range out.Traces {
			raw[r] = b.Bytes()
		}
		if tc.thin {
			raw = thinTraces(t, out.Traces, 1)
		}
		ts := tracefile.NewBufferSet(raw)
		boot, err := timesync.BootstrapSet(ts, out.ClockGroups, timesync.DefaultWindowUS, 1)
		if err != nil {
			t.Fatal(err)
		}
		sources, fault := unify.TraceSources(ts)
		u := unify.New(unify.DefaultConfig(), sources, boot)
		next := func() *unify.JFrame {
			j, err := u.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				t.Fatal(err)
			}
			return j
		}
		differential(t, tc.name, next, (*unify.JFrame).Release)
		if err := fault(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeapExpireMatchesWalkSynthetic drives both reconstructors with a
// random stream over a handful of senders that exercises every clause:
// stamps that step backwards (the unifier's emission inversion), gaps past
// the exchange timeout, matched and orphan ACKs, RTS/CTS pairs, broadcasts,
// sequence repeats, advances and gaps, and FCS-invalid jframes.
func TestHeapExpireMatchesWalkSynthetic(t *testing.T) {
	stations := []dot80211.MAC{ap, sta, {2, 0, 0, 0, 0, 2}, {2, 0, 0, 0, 0, 3}, {2, 0, 0, 0, 0, 4}, {2, 0, 0, 0, 0, 5}}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seqs := make([]uint16, len(stations))
		now := int64(1_000_000)
		var last *unify.JFrame // the previous data frame, for a timely ACK
		remaining := 4000
		next := func() *unify.JFrame {
			if remaining == 0 {
				return nil
			}
			remaining--
			switch p := rng.Float64(); {
			case p < 0.02:
				now += 400_000 + rng.Int63n(400_000) // around the exchange timeout
			case p < 0.10:
				now -= rng.Int63n(400) // emission inversion
			default:
				now += rng.Int63n(3_000)
			}
			i := rng.Intn(len(stations))
			tx, rx := stations[i], stations[(i+1+rng.Intn(len(stations)-1))%len(stations)]
			var j *unify.JFrame
			switch p := rng.Float64(); {
			case p < 0.35:
				switch q := rng.Float64(); {
				case q < 0.25: // retransmission
				case q < 0.35:
					seqs[i] += uint16(2 + rng.Intn(20)) // R4 gap
				default:
					seqs[i]++
				}
				j = dataJF(tx, rx, seqs[i]&0x0fff, now, rng.Float64() < 0.3)
				last = j
			case p < 0.55 && last != nil:
				// SIFS after the last data frame if that is not too far
				// back, else late: an ACK its window no longer takes.
				j = ackJF(last.Frame.Addr2, last)
				if j.UnivUS > now-400 {
					now = j.UnivUS
				}
				j.UnivUS = now
			case p < 0.65:
				j = jf(dot80211.NewAck(tx), now, dot80211.Rate2Mbps) // orphan
			case p < 0.73:
				j = jf(dot80211.NewRTS(rx, tx, uint16(200+rng.Intn(2_000))), now, dot80211.Rate2Mbps)
			case p < 0.81:
				j = jf(dot80211.NewCTSToSelf(tx, uint16(100+rng.Intn(2_000))), now, dot80211.Rate2Mbps)
			case p < 0.88:
				seqs[i]++
				j = jf(dot80211.NewData(dot80211.Broadcast, tx, ap, seqs[i]&0x0fff, []byte("arp")), now, dot80211.Rate1Mbps)
			case p < 0.93:
				seqs[i]++
				j = jf(dot80211.NewBeacon(tx, seqs[i]&0x0fff, uint64(now), "net"), now, dot80211.Rate1Mbps)
			default:
				j = dataJF(tx, rx, seqs[i]&0x0fff, now, false)
				j.Valid = false
			}
			return j
		}
		differential(t, fmt.Sprintf("seed%d", seed), next, func(*unify.JFrame) {})
	}
}
