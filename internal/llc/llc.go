// Package llc reconstructs link-layer conversations from the unified jframe
// stream (§5.1): it assembles jframes into transmission attempts (an
// optional CTS-to-self, a DATA/management frame, and the trailing ACK,
// associated by MAC address and by the Duration field's prediction of when
// an ACK must land), then composes attempts into frame exchanges using the
// sequence-number FSM (rules R1–R4) plus the paper's heuristics, inferring
// the presence of transmissions the monitors missed.
//
// Per-transmitter state times out (ACK windows, RTS/CTS reservations, orphan
// ACKs, the 500 ms exchange timeout), and the reconstructor finds what has
// timed out without visiting every sender: each sender sits in a min-heap
// keyed by its due instant, the earliest universal time at which any clause
// of its expiry can fire. What must hold is that a sender's due key is never
// later than the first clause that can fire for it. Every change to a
// sender's state re-keys it, so a sender none of whose deadlines has passed
// is never looked at. A second heap keys each sender by the stamp it holds
// the watermark down to.
package llc

import (
	"math"

	"repro/internal/dot80211"
	"repro/internal/unify"
)

// Delivery classifies the outcome of a frame exchange as seen (or inferred)
// from the passive vantage point.
type Delivery uint8

// Delivery outcomes.
const (
	// DeliveryUnknown: no ACK observed — the frame may have been lost, or
	// the ACK may simply not have been captured. §5.2's transport oracle
	// disambiguates where TCP state allows.
	DeliveryUnknown Delivery = iota
	// DeliveryObserved: the ACK was captured.
	DeliveryObserved
	// DeliveryInferred: no ACK seen for the final attempt, but subsequent
	// sender behaviour (sequence advance, orphan ACK timing) implies
	// delivery.
	DeliveryInferred
	// DeliveryBroadcast: broadcast/multicast frames have no ARQ; delivery
	// is undefined at the link layer.
	DeliveryBroadcast
	// DeliveryFailed: the sender abandoned the exchange (observed retries
	// exhausted with no delivery evidence).
	DeliveryFailed
)

// String names the delivery verdict.
func (d Delivery) String() string {
	switch d {
	case DeliveryObserved:
		return "delivered"
	case DeliveryInferred:
		return "delivered-inferred"
	case DeliveryBroadcast:
		return "broadcast"
	case DeliveryFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Attempt is one transmission attempt: up to three jframes (CTS-to-self,
// DATA, ACK) associated into a single MAC transaction.
type Attempt struct {
	RTS  *unify.JFrame // optional RTS preceding the exchange
	CTS  *unify.JFrame // optional protection CTS-to-self or RTS response
	Data *unify.JFrame // nil when the data frame itself was inferred
	Ack  *unify.JFrame // optional

	Transmitter dot80211.MAC
	Receiver    dot80211.MAC
	Seq         uint16
	HasSeq      bool
	Retry       bool
	StartUS     int64
	EndUS       int64
	// Inferred marks attempts whose existence or composition required
	// inference (missing DATA deduced from CTS/ACK timing).
	Inferred bool
}

// Acked reports whether this attempt ended with a captured ACK.
func (a *Attempt) Acked() bool { return a.Ack != nil }

// Exchange is a complete frame exchange: every transmission attempt
// (including retransmissions) of one MSDU, ending in delivery or
// abandonment.
type Exchange struct {
	Attempts    []*Attempt
	Transmitter dot80211.MAC
	Receiver    dot80211.MAC
	Seq         uint16
	Broadcast   bool
	Delivery    Delivery
	Inferred    bool
	StartUS     int64
	EndUS       int64
	// CloseUS is the universal time at which the exchange's fate was
	// decided: the closing frame's timestamp for direct closes, the orphan
	// ACK's timestamp for inferred completions, and lastSeen plus the
	// exchange timeout for abandonment. Unlike the moment of emission
	// (which depends on when the reconstructor's clock happened to
	// advance), CloseUS is a pure function of the sender's frame
	// subsequence, so a (CloseUS, ...) sort yields one canonical exchange
	// order.
	CloseUS int64
}

// Data returns the first attempt's data jframe (nil if all inferred).
func (e *Exchange) Data() *unify.JFrame {
	for _, a := range e.Attempts {
		if a.Data != nil {
			return a.Data
		}
	}
	return nil
}

// frames visits every jframe the exchange's attempts hold.
func (e *Exchange) frames(fn func(*unify.JFrame)) {
	for _, a := range e.Attempts {
		if a.RTS != nil {
			fn(a.RTS)
		}
		if a.CTS != nil {
			fn(a.CTS)
		}
		if a.Data != nil {
			fn(a.Data)
		}
		if a.Ack != nil {
			fn(a.Ack)
		}
	}
}

// Retain adds one ownership reference to every jframe the exchange holds,
// for holders that keep the exchange past the observation that delivered
// it (see the unify package's ownership rules).
func (e *Exchange) Retain() { e.frames((*unify.JFrame).Retain) }

// Release drops the exchange's ownership of its jframes. After the last
// holder releases, the frames' storage is recycled; the exchange and its
// attempts must not be touched again.
func (e *Exchange) Release() { e.frames((*unify.JFrame).Release) }

// Retransmissions counts attempts beyond the first.
func (e *Exchange) Retransmissions() int { return len(e.Attempts) - 1 }

// Timing tolerances (µs).
const (
	// ackSlackUS pads the Duration-predicted ACK arrival window to absorb
	// synchronization dispersion (Fig. 4: ≤20 µs for 99% of jframes).
	ackSlackUS = 60
	// ctsGapMaxUS bounds CTS-to-self → DATA separation (SIFS plus slack).
	ctsGapMaxUS = dot80211.SIFS + 60
	// exchangeTimeoutUS closes an exchange with no further activity:
	// "almost all frame exchanges can complete within 500 ms".
	exchangeTimeoutUS = 500_000
)

// Stats counts reconstruction outcomes (§5.1 reports 0.58% of attempts and
// 0.14% of exchanges requiring inference). Every inference adds one inferred
// attempt and one inferred exchange, and Exchanges ≤ Attempts, so the
// exchange rate is at least the attempt rate by construction; the paper's
// 0.14% < 0.58% implies some of its exchanges carry several inferred
// attempts.
type Stats struct {
	JFrames           int64
	Attempts          int64
	InferredAttempts  int64
	Exchanges         int64
	InferredExchanges int64
	OrphanAcks        int64
	FlushedUnassigned int64
}

// Add accumulates another reconstructor's counters (per-building runs sum
// into the totals one run over all of them reports).
func (s *Stats) Add(o Stats) {
	s.JFrames += o.JFrames
	s.Attempts += o.Attempts
	s.InferredAttempts += o.InferredAttempts
	s.Exchanges += o.Exchanges
	s.InferredExchanges += o.InferredExchanges
	s.OrphanAcks += o.OrphanAcks
	s.FlushedUnassigned += o.FlushedUnassigned
}

// Reconstructor consumes jframes in universal-time order and emits frame
// exchanges as they close.
type Reconstructor struct {
	Stats Stats

	// senders finds a data transmitter's open state by MAC (only Flush
	// ranges over it); due and held order the same senders by deadline
	// (see senderState.key).
	senders map[dot80211.MAC]*senderState
	due     senderHeap
	held    senderHeap
	expired []*senderState // expire's scratch: the senders it popped

	out       []*Exchange
	now       int64
	watermark int64
}

// senderState is one data transmitter's open state: its exchange stream
// and the frames of an attempt still being assembled.
type senderState struct {
	tx        dot80211.MAC
	cur       *Exchange
	lastSeen  int64
	orphanAck *unify.JFrame // queued ACK awaiting position resolution

	// rts and cts await the DATA they announce: an RTS names its
	// transmitter in Addr2; a CTS-to-self carries the protecting
	// transmitter in Addr1, and a CTS answering an RTS is addressed to the
	// data transmitter the same way, so one slot serves both.
	rts, cts *unify.JFrame
	// open is the attempt whose ACK window is still open, until
	// openDeadline, the latest universal time the ACK may arrive.
	open         *Attempt
	openDeadline int64

	// key holds the sender's place in the reconstructor's two heaps, and at
	// its index in each (-1 when absent): key[byDue] is dueUS(), and
	// key[byHold] is holdUS().
	key [2]int64
	at  [2]int
}

// The two orders a sender is kept in.
const (
	byDue  = iota // Reconstructor.due
	byHold        // Reconstructor.held
)

// never is the key of a sender that is not in a heap.
const never = math.MaxInt64

// dueUS is the earliest instant at which a clause of expireSender can fire:
// each clause fires once r.now is strictly past the time it compares
// against. lastSeen plus the exchange timeout is when the timeout closes
// cur, or, with no cur, when the sender is forgotten; forgetting needs
// nothing else open, so without cur that instant counts only then.
func (ss *senderState) dueUS() int64 {
	k := int64(never)
	if ss.open != nil {
		k = min(k, ss.openDeadline)
	}
	if ss.cts != nil {
		k = min(k, reservationEndUS(ss.cts))
	}
	if ss.rts != nil {
		k = min(k, reservationEndUS(ss.rts))
	}
	if ss.orphanAck != nil && ss.cur == nil {
		k = min(k, ss.orphanAck.UnivUS+exchangeTimeoutUS)
	}
	if ss.cur != nil || ss.orphanAck == nil && ss.cts == nil && ss.rts == nil && ss.open == nil {
		k = min(k, ss.lastSeen+exchangeTimeoutUS)
	}
	return k
}

// holdUS is the sender's bound on the watermark: the timeout stamp of its
// open exchange and the stamp of its queued orphan ACK.
func (ss *senderState) holdUS() int64 {
	k := int64(never)
	if ss.cur != nil {
		k = ss.lastSeen + exchangeTimeoutUS
	}
	if ss.orphanAck != nil {
		k = min(k, ss.orphanAck.UnivUS)
	}
	return k
}

// NewReconstructor creates an empty reconstructor.
func NewReconstructor() *Reconstructor {
	return &Reconstructor{
		senders:   make(map[dot80211.MAC]*senderState),
		due:       senderHeap{k: byDue},
		held:      senderHeap{k: byHold},
		now:       math.MinInt64,
		watermark: math.MinInt64,
	}
}

// Watermark returns a lower bound on the CloseUS of every exchange this
// reconstructor can still emit, given jframes in time order, which the
// unifier and the hierarchical merge both deliver. The pipeline releases
// closed exchanges strictly below it to keep the exchange stream in
// canonical order, and hands it to consumers as core.Result.CompleteUS: it
// never passes the latest jframe's stamp, so it bounds the jframes still to
// come as well.
func (r *Reconstructor) Watermark() int64 { return r.watermark }

// Process feeds one jframe; completed exchanges become available via Take.
func (r *Reconstructor) Process(j *unify.JFrame) {
	if !j.Valid {
		return // corrupted/phy-only jframes carry no reconstruction weight
	}
	r.Stats.JFrames++
	r.now = j.UnivUS
	r.expire()
	if ss := r.handle(j); ss != nil {
		r.rekey(ss)
	}
}

// handle applies one valid jframe to the state of the sender it concerns and
// returns that sender, or nil if the frame concerns none.
func (r *Reconstructor) handle(j *unify.JFrame) *senderState {
	// Ownership: Process borrows j from the caller. Every slot that keeps
	// a frame past this call (pending CTS/RTS, attempts, orphan ACKs)
	// holds exactly one reference, taken on store and dropped when the
	// slot is cleared; attaching a pending frame to an attempt transfers
	// the slot's reference.
	f := &j.Frame
	switch {
	case f.Type == dot80211.TypeControl && f.Subtype == dot80211.SubtypeRTS:
		ss := r.sender(f.Addr2)
		setPending(&ss.rts, j)
		return ss
	case f.IsCTS():
		ss := r.sender(f.Addr1)
		setPending(&ss.cts, j)
		return ss
	case f.IsACK():
		return r.handleAck(j)
	case f.IsData() || f.Type == dot80211.TypeManagement:
		return r.handleData(j)
	}
	return nil
}

// setPending stores j in a pending RTS/CTS slot, dropping what it held.
func setPending(slot **unify.JFrame, j *unify.JFrame) {
	j.Retain()
	clearPending(slot)
	*slot = j
}

// clearPending empties a pending RTS/CTS slot, dropping its reference.
func clearPending(slot **unify.JFrame) {
	if *slot != nil {
		(*slot).Release()
		*slot = nil
	}
}

// reservationEndUS is the last instant of the medium reservation a pending
// RTS/CTS made: its Duration field counts from the frame's end.
func reservationEndUS(j *unify.JFrame) int64 {
	return j.EndUS() + int64(j.Frame.Duration) + ackSlackUS
}

// expire closes ACK windows and exchanges that have timed out by r.now, and
// recomputes the watermark from the remaining open state. Expiry timing is
// result-neutral: whenever a sender's next frame arrives, Process runs
// expire first, so state past its deadline is gone by then whether or not
// an intervening frame cleared it earlier — and timed-out closes are
// stamped with their deadline, not with r.now.
//
// Only the senders whose due key is below r.now can have a clause fire, so
// only they are visited, each once; that rests on every sender's key being
// no later than its first clause that can fire (senderState.dueUS). A sender
// re-keyed below r.now — an orphan ACK left behind by the exchange the
// timeout just closed — waits for the next call, as it always has.
func (r *Reconstructor) expire() {
	for len(r.due.s) > 0 && r.due.s[0].key[byDue] < r.now {
		ss := r.due.s[0]
		r.due.remove(ss)
		r.expired = append(r.expired, ss)
	}
	for i, ss := range r.expired {
		r.expireSender(ss)
		r.expired[i] = nil
	}
	r.expired = r.expired[:0]
	r.watermark = r.now
	if len(r.held.s) > 0 {
		r.watermark = min(r.watermark, r.held.s[0].key[byHold])
	}
}

// expireSender runs every expiry clause against one sender at r.now, then
// re-keys it, or forgets it once nothing of it is left open.
func (r *Reconstructor) expireSender(ss *senderState) {
	if ss.open != nil && r.now > ss.openDeadline {
		ss.open = nil
	}
	if ss.cts != nil && r.now > reservationEndUS(ss.cts) {
		clearPending(&ss.cts)
	}
	if ss.rts != nil && r.now > reservationEndUS(ss.rts) {
		clearPending(&ss.rts)
	}
	// An orphan ACK whose sender has no open exchange can only ever
	// resolve to a fully inferred exchange (resolveOrphan runs before a
	// new exchange opens); once it ages past the exchange timeout, emit
	// that now instead of pinning the watermark until the next frame.
	if ss.orphanAck != nil && ss.cur == nil && r.now-ss.orphanAck.UnivUS > exchangeTimeoutUS {
		r.resolveOrphan(ss, 0)
	}
	if ss.cur != nil && r.now-ss.lastSeen > exchangeTimeoutUS {
		r.closeExchange(ss, DeliveryUnknown, ss.lastSeen+exchangeTimeoutUS)
	}
	if ss.cur == nil && ss.orphanAck == nil && ss.cts == nil && ss.rts == nil && ss.open == nil &&
		r.now-ss.lastSeen > exchangeTimeoutUS {
		r.held.remove(ss) // expire has taken it out of due
		delete(r.senders, ss.tx)
		return
	}
	r.rekey(ss)
}

// rekey files a sender under its current keys after its state changed.
func (r *Reconstructor) rekey(ss *senderState) {
	r.due.set(ss, ss.dueUS())
	r.held.set(ss, ss.holdUS())
}

// handleData starts a transmission attempt for a DATA or management frame,
// returning its transmitter's state.
func (r *Reconstructor) handleData(j *unify.JFrame) *senderState {
	f := &j.Frame
	tx := f.Addr2
	ss := r.sender(tx)
	j.Retain()
	a := &Attempt{
		Data:        j,
		Transmitter: tx,
		Receiver:    f.Addr1,
		Seq:         f.Seq,
		HasSeq:      true,
		Retry:       f.Retry(),
		StartUS:     j.UnivUS,
		EndUS:       j.EndUS(),
	}
	// Attach a preceding CTS (protection or RTS response) if timing fits
	// (the pending slot's reference transfers to the attempt), and the RTS
	// before that. Either way the pending slot empties: an unattachable
	// frame is dropped.
	if cts := ss.cts; cts != nil {
		ss.cts = nil
		if gap := j.UnivUS - cts.EndUS(); gap >= 0 && gap <= ctsGapMaxUS {
			a.CTS = cts
			a.StartUS = cts.UnivUS
		} else {
			cts.Release()
		}
	}
	if rts := ss.rts; rts != nil {
		ss.rts = nil
		start := j.UnivUS
		if a.CTS != nil {
			start = a.CTS.UnivUS
		}
		if gap := start - rts.EndUS(); gap >= 0 && gap <= ctsGapMaxUS {
			a.RTS = rts
			a.StartUS = rts.UnivUS
		} else {
			rts.Release()
		}
	}
	r.Stats.Attempts++

	if f.Addr1.IsMulticast() {
		// R1: broadcast — attempt and exchange are identical.
		r.assignAttempt(ss, a, true)
		return ss
	}
	// Unicast: open the ACK window predicted by the Duration field. If the
	// Duration is absent (0), fall back to SIFS + slowest ACK.
	window := int64(f.Duration)
	if window == 0 {
		window = dot80211.SIFS + 304 // 1 Mbps long-preamble ACK
	}
	a.EndUS = j.EndUS()
	ss.open, ss.openDeadline = a, j.EndUS()+window+ackSlackUS
	r.assignAttempt(ss, a, false)
	return ss
}

// handleAck matches an ACK to the open attempt of its addressee, or queues
// it as an orphan for later inference, returning the addressee's state.
func (r *Reconstructor) handleAck(j *unify.JFrame) *senderState {
	dataTx := j.Frame.Addr1 // the station being acknowledged
	ss := r.senders[dataTx]
	if ss != nil && ss.open != nil && j.UnivUS <= ss.openDeadline {
		j.Retain()
		ss.open.Ack = j
		ss.open.EndUS = j.EndUS()
		ss.open = nil
		// A captured ACK completes the exchange.
		if ss.cur != nil {
			ss.lastSeen = r.now
			r.closeExchange(ss, DeliveryObserved, r.now)
		}
		return ss
	}
	// Orphan: the DATA (or the whole attempt) was not captured. Queue it
	// until more frames from this sender resolve its position (§5.1).
	r.Stats.OrphanAcks++
	if ss == nil {
		ss = r.sender(dataTx)
	}
	j.Retain()
	if ss.orphanAck != nil {
		ss.orphanAck.Release()
	}
	ss.orphanAck = j
	ss.lastSeen = r.now
	return ss
}

// sender returns (creating) per-transmitter state.
func (r *Reconstructor) sender(tx dot80211.MAC) *senderState {
	ss := r.senders[tx]
	if ss == nil {
		ss = &senderState{tx: tx, at: [2]int{-1, -1}}
		r.senders[tx] = ss
	}
	return ss
}

// assignAttempt routes an attempt into the sender's exchange stream,
// applying R1–R4.
func (r *Reconstructor) assignAttempt(ss *senderState, a *Attempt, broadcast bool) {
	ss.lastSeen = r.now

	if broadcast {
		// R1: close any open exchange first (the sender moved on).
		if ss.cur != nil {
			r.resolveOrphan(ss, a.Seq)
			if ss.cur != nil {
				r.closeExchange(ss, DeliveryUnknown, r.now)
			}
		}
		ex := &Exchange{
			Attempts: []*Attempt{a}, Transmitter: a.Transmitter,
			Receiver: a.Receiver, Seq: a.Seq, Broadcast: true,
			Delivery: DeliveryBroadcast, StartUS: a.StartUS, EndUS: a.EndUS,
			CloseUS: r.now,
		}
		r.emit(ex)
		return
	}

	if ss.cur != nil {
		delta := int((a.Seq - ss.cur.Seq) & 0x0fff)
		switch {
		case delta == 0:
			// R2: retransmission of the current exchange.
			ss.cur.Attempts = append(ss.cur.Attempts, a)
			ss.cur.EndUS = a.EndUS
			return
		case delta == 1:
			// R3: new exchange. Resolve any queued orphan ACK first: it
			// belonged to a missing final retry of the current exchange.
			r.resolveOrphan(ss, a.Seq)
			if ss.cur != nil {
				r.closeExchange(ss, DeliveryUnknown, r.now)
			}
		default:
			// R4: sequence gap — no inferences; flush.
			if ss.orphanAck != nil {
				ss.orphanAck.Release()
				ss.orphanAck = nil
				r.Stats.FlushedUnassigned++
			}
			r.closeExchange(ss, DeliveryUnknown, r.now)
		}
	} else {
		r.resolveOrphan(ss, a.Seq)
	}
	ss.cur = &Exchange{
		Attempts: []*Attempt{a}, Transmitter: a.Transmitter,
		Receiver: a.Receiver, Seq: a.Seq,
		StartUS: a.StartUS, EndUS: a.EndUS,
	}
}

// resolveOrphan decides what a queued orphan ACK meant, given that the
// sender's next sequence number is nextSeq. If an exchange is open and the
// orphan arrived within its window, the missing data frame was a (final)
// retry of that exchange: the exchange completes as delivered-inferred,
// with an inferred attempt holding the ACK. (Heuristics: data frames are
// more likely lost than ACKs; exchanges complete within 500 ms.)
func (r *Reconstructor) resolveOrphan(ss *senderState, nextSeq uint16) {
	if ss.orphanAck == nil {
		return
	}
	// The orphan slot's frame reference transfers to the inferred attempt
	// built below (both branches store the ack).
	ack := ss.orphanAck
	ss.orphanAck = nil
	if ss.cur != nil && ack.UnivUS-ss.cur.StartUS < exchangeTimeoutUS &&
		ack.UnivUS >= ss.cur.StartUS {
		inf := &Attempt{
			Ack:         ack,
			Transmitter: ss.cur.Transmitter,
			Receiver:    ss.cur.Receiver,
			Seq:         ss.cur.Seq, HasSeq: true,
			StartUS: ack.UnivUS, EndUS: ack.EndUS(),
			Inferred: true,
		}
		r.Stats.Attempts++
		r.Stats.InferredAttempts++
		ss.cur.Attempts = append(ss.cur.Attempts, inf)
		ss.cur.EndUS = inf.EndUS
		ss.cur.Inferred = true
		// The exchange's fate was sealed when the orphan ACK landed; stamp
		// that, not the (cadence-dependent) moment the inference ran.
		r.closeExchange(ss, DeliveryInferred, ack.UnivUS)
		return
	}
	// No open exchange to bind to: the entire exchange (data + all
	// context) was missed except this ACK. Emit a fully inferred exchange.
	inf := &Attempt{
		Ack:         ack,
		Transmitter: ack.Frame.Addr1,
		StartUS:     ack.UnivUS, EndUS: ack.EndUS(),
		Inferred: true,
	}
	r.Stats.Attempts++
	r.Stats.InferredAttempts++
	ex := &Exchange{
		Attempts: []*Attempt{inf}, Transmitter: ack.Frame.Addr1,
		Delivery: DeliveryInferred, Inferred: true,
		StartUS: inf.StartUS, EndUS: inf.EndUS,
		CloseUS: ack.UnivUS,
	}
	r.Stats.InferredExchanges++
	r.emit(ex)
}

// closeExchange finalizes the sender's current exchange, stamping closeUS
// (which call sites derive only from the sender's own frames, never from
// when the reconstructor's clock happened to advance).
func (r *Reconstructor) closeExchange(ss *senderState, verdict Delivery, closeUS int64) {
	ex := ss.cur
	if ex == nil {
		return
	}
	ex.CloseUS = closeUS
	ss.cur = nil
	// An observed ACK on any attempt upgrades the verdict.
	for _, a := range ex.Attempts {
		if a.Acked() && !a.Inferred {
			verdict = DeliveryObserved
		}
	}
	if verdict == DeliveryUnknown {
		// Retries exhausted? If we saw a long retry train with no ACK the
		// exchange very likely failed; with few attempts it is ambiguous.
		if len(ex.Attempts) >= 7 {
			verdict = DeliveryFailed
		}
	}
	ex.Delivery = verdict
	if ex.Inferred {
		r.Stats.InferredExchanges++
	}
	r.emit(ex)
}

// emit queues a finished exchange for Take.
func (r *Reconstructor) emit(ex *Exchange) {
	r.Stats.Exchanges++
	r.out = append(r.out, ex)
}

// Take returns exchanges completed so far and clears the buffer.
func (r *Reconstructor) Take() []*Exchange {
	out := r.out
	r.out = nil
	return out
}

// Flush closes every open exchange at end of trace and returns the
// remainder. Flushed exchanges are stamped as if the stream had run on to
// their timeout, so truncating a trace at different points yields the same
// stamps. RTS/CTS frames still waiting for their DATA are dropped: after
// Flush the reconstructor holds no frame references.
func (r *Reconstructor) Flush() []*Exchange {
	for _, ss := range r.senders {
		r.resolveOrphan(ss, 0)
		if ss.cur != nil {
			r.closeExchange(ss, DeliveryUnknown, ss.lastSeen+exchangeTimeoutUS)
		}
		clearPending(&ss.cts)
		clearPending(&ss.rts)
		r.rekey(ss)
	}
	r.watermark = math.MaxInt64
	return r.Take()
}

// senderHeap is an indexed min-heap of senders on key[k], each holding its
// index in at[k].
type senderHeap struct {
	k int
	s []*senderState
}

// set files ss under key, moving it, or removing it when key is never.
func (h *senderHeap) set(ss *senderState, key int64) {
	i := ss.at[h.k]
	switch {
	case key == never:
		h.remove(ss)
	case i < 0:
		ss.key[h.k], ss.at[h.k] = key, len(h.s)
		h.s = append(h.s, ss)
		h.up(len(h.s) - 1)
	case key < ss.key[h.k]:
		ss.key[h.k] = key
		h.up(i)
	case key > ss.key[h.k]:
		ss.key[h.k] = key
		h.down(i)
	}
}

// remove takes ss out of the heap if it is there.
func (h *senderHeap) remove(ss *senderState) {
	i := ss.at[h.k]
	if i < 0 {
		return
	}
	last := len(h.s) - 1
	h.swap(i, last)
	h.s[last] = nil
	h.s = h.s[:last]
	ss.key[h.k], ss.at[h.k] = never, -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *senderHeap) less(i, j int) bool { return h.s[i].key[h.k] < h.s[j].key[h.k] }

func (h *senderHeap) swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.s[i].at[h.k], h.s[j].at[h.k] = i, j
}

func (h *senderHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *senderHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.s) {
			return
		}
		if c+1 < len(h.s) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
