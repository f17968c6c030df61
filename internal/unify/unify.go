// Package unify implements Jigsaw's frame unification (§4.2): merging the
// per-radio traces into a single universal-time stream of jframes, each
// representing one physical transmission with the set of radios that heard
// it, while continuously resynchronizing every radio's clock.
//
// The algorithm is the paper's: a single priority queue holds the earliest
// unconsumed instance from each trace, mapped into universal time through a
// per-radio offset-plus-skew model. Instances popped within a search window
// are grouped by content into jframes (content comparison short-circuits on
// a precomputed hash, length and rate before touching bytes), each jframe
// is timestamped with the median of its instances, and whenever a jframe's
// group dispersion exceeds a threshold the member radios' clocks are
// snapped back into agreement. Per-radio skew and drift are tracked with
// EWMAs so that radios which go quiet (up to the ~100 ms beacon gap) stay
// placed correctly in universal time.
//
// Memory model: the unifier is the boundary where borrowed tracefile
// records become owned jframes. Incoming record frames (which alias the
// reader's block buffer) are copied into per-radio queue entries; emitted
// jframes come from a pool with an explicit Retain/Release ownership
// contract — see pool.go.
package unify

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/clock"
	"repro/internal/dot80211"
	"repro/internal/timesync"
	"repro/internal/tracefile"
)

// Config tunes the unifier.
type Config struct {
	// SearchWindowUS bounds how far (in universal µs) past a candidate
	// instance the queue is searched for duplicates. Paper default: 10 ms.
	SearchWindowUS int64
	// GapUS closes a batch when successive queue heads are further apart
	// than this. Duplicates of one transmission differ by clock dispersion
	// only, so any value above worst-case dispersion is safe; distinct
	// transmissions are separated by at least a SIFS plus a preamble.
	GapUS int64
	// ResyncDispersionUS is the minimum group dispersion that triggers
	// resynchronization of member clocks. Paper: 10 µs.
	ResyncDispersionUS int64
	// JoinToleranceUS bounds how far (in universal µs) an instance may sit
	// from a group's representative and still join it. It must exceed the
	// worst plausible clock dispersion but stay below typical spacing of
	// identical-content transmissions (ACK trains, retries).
	JoinToleranceUS int64
	// SkewCompensation toggles the EWMA skew/drift model (ablation: the
	// paper found it necessary at scale).
	SkewCompensation bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		SearchWindowUS:     10_000, // 10 ms
		GapUS:              250,
		ResyncDispersionUS: 10,
		JoinToleranceUS:    200,
		SkewCompensation:   true,
	}
}

// Instance is one radio's reception contributing to a jframe.
type Instance struct {
	Radio   int32
	LocalUS int64
	UnivUS  int64 // after offset+skew mapping
	RSSIdBm int8
	FCSOK   bool
	PhyErr  bool
}

// JFrame is one unified physical transmission (or error event).
//
// Frames produced by the unifier (and the hmerge reader) are pooled and
// reference counted — see the package ownership rules in pool.go. All
// byte-slice fields (Wire, Frame.Body) point into storage owned by the
// frame itself and die with its last Release.
type JFrame struct {
	UnivUS  int64 // median instance universal timestamp
	Frame   dot80211.Frame
	Wire    []byte // representative wire bytes (from a valid instance)
	Rate    dot80211.Rate
	Channel dot80211.Channel
	Valid   bool // at least one FCS-valid instance
	PhyOnly bool // physical-error event with no frame content
	// WireLen is the true on-air frame length (captures are snapped).
	WireLen   int
	Instances []Instance
	// DispersionUS is the group dispersion: latest minus earliest instance
	// universal timestamp (Figure 4's metric).
	DispersionUS int64

	refs    int32 // atomic ownership count (pool.go)
	pooled  bool
	wireBuf []byte // owned storage backing Wire
}

// AirtimeUS estimates the jframe's on-air duration from its true length
// and rate.
func (j *JFrame) AirtimeUS() int64 {
	if j.PhyOnly || !j.Valid {
		return 0
	}
	n := j.WireLen
	if n == 0 {
		n = len(j.Wire)
	}
	return int64(dot80211.AirtimeUS(n, j.Rate, dot80211.LongPreamble))
}

// EndUS returns the universal end time (timestamps mark reception start).
func (j *JFrame) EndUS() int64 { return j.UnivUS + j.AirtimeUS() }

// Source supplies one radio's time-ordered records. Next returns io.EOF at
// end of trace.
type Source interface {
	Next() (tracefile.Record, error)
}

// sliceSource adapts an in-memory record slice.
type sliceSource struct {
	recs []tracefile.Record
	i    int
}

// NewSliceSource wraps records (must be time-ordered) as a Source.
func NewSliceSource(recs []tracefile.Record) Source { return &sliceSource{recs: recs} }

func (s *sliceSource) Next() (tracefile.Record, error) {
	if s.i >= len(s.recs) {
		return tracefile.Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// TraceSources adapts every radio of a stored trace set for New: one lazy,
// self-closing tracefile.RadioSource each. The returned function reports
// the first fault a source latched, in radio order; call it once the
// stream is drained (the unifier itself drops a failing radio and goes on).
func TraceSources(ts *tracefile.TraceSet) (map[int32]Source, func() error) {
	radios := ts.Radios()
	sources := make(map[int32]Source, len(radios))
	for _, r := range radios {
		sources[r] = ts.Source(r)
	}
	return sources, func() error {
		for _, r := range radios {
			if err := sources[r].(*tracefile.RadioSource).Err(); err != nil {
				return fmt.Errorf("trace for radio %d: %w", r, err)
			}
		}
		return nil
	}
}

// queueEntry is one radio's head instance in the priority queue. Entries
// own their frame bytes (buf) — records are copied out of the reader's
// borrowed block buffer on arrival — and are recycled through the
// unifier's freelist after their batch is emitted.
type queueEntry struct {
	univUS int64
	hash   uint32           // content hash over frame bytes: dedup pre-filter
	rec    tracefile.Record // Frame points into buf
	buf    []byte           // owned frame storage, reused across reuses
	radio  int32            // radio id (for output)
	ri     int32            // dense index into Unifier.radios
}

// instanceHeap is a binary min-heap on univUS with concrete sift loops. It
// replicates container/heap's algorithm exactly (strict-less comparisons,
// same swap order) so pop order — including ties — is bit-for-bit what the
// interface-based heap produced, without the per-record interface dispatch
// the profile charged to container/heap.down.
type instanceHeap []*queueEntry

func (h *instanceHeap) push(e *queueEntry) {
	s := append(*h, e)
	*h = s
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if s[j].univUS >= s[i].univUS {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *instanceHeap) popMin() *queueEntry {
	s := *h
	n := len(s) - 1
	e := s[0]
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].univUS < s[j].univUS {
			j = r
		}
		if s[j].univUS >= s[i].univUS {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return e
}

// Stats accumulates unifier counters for Table 1.
type Stats struct {
	Events    int64 // records consumed
	PhyErrors int64 // physical-error records
	CRCErrors int64 // FCS-failed frame records
	Unified   int64 // records merged into jframes (valid + matched errors)
	JFrames   int64
	// Resyncs counts member clocks resynchronized, not jframes: a
	// resyncing jframe adds one per FCS-valid member.
	Resyncs      int64
	MaxDispersUS int64
}

// Add accumulates another run's counters into s — how per-building unify
// stats combine into campus totals on the hierarchical path. Counters sum;
// MaxDispersUS, a maximum, takes the larger value.
func (s *Stats) Add(o Stats) {
	s.Events += o.Events
	s.PhyErrors += o.PhyErrors
	s.CRCErrors += o.CRCErrors
	s.Unified += o.Unified
	s.JFrames += o.JFrames
	s.Resyncs += o.Resyncs
	if o.MaxDispersUS > s.MaxDispersUS {
		s.MaxDispersUS = o.MaxDispersUS
	}
}

// radioState is one radio's source and clock, stored densely so the hot
// path indexes a slice instead of hashing int32 map keys.
type radioState struct {
	src     Source
	tracker *clock.OffsetTracker
	id      int32
}

// grp is one content group being assembled from a batch.
type grp struct {
	rep     *queueEntry
	frame   dot80211.Frame // rep's capture, decoded once and shared with emit
	decErr  bool
	tx      dot80211.MAC
	ctrl    bool // rep is a control frame (transmitterless identity: subtype+RA)
	valid   bool
	members []*queueEntry
	// radioBits tracks member radios by dense index (queueEntry.ri) so the
	// one-instance-per-radio check is a bit test instead of a member scan —
	// the grouping inner loop runs it per (entry, group) pair, and at
	// building scale (120 radios hearing most frames) the old linear scan
	// was the single hottest path in the whole merge.
	radioBits []uint64
}

// hasRadio reports whether the group already took an instance from the
// radio with dense index ri.
func (g *grp) hasRadio(ri int32) bool {
	w := int(ri >> 6)
	return w < len(g.radioBits) && g.radioBits[w]&(1<<(uint32(ri)&63)) != 0
}

// addRadio records dense radio index ri in the group's membership set.
func (g *grp) addRadio(ri int32) {
	w := int(ri >> 6)
	for w >= len(g.radioBits) {
		g.radioBits = append(g.radioBits, 0)
	}
	g.radioBits[w] |= 1 << (uint32(ri) & 63)
}

// Unifier merges per-radio sources into a jframe stream.
type Unifier struct {
	cfg    Config
	radios []radioState
	heap   instanceHeap

	// pending holds built jframes sorted by (UnivUS, emission sequence);
	// pending[pendHead:] are still to be returned. Next releases them up to
	// floorUS, recomputed each time the newest held stamp reaches
	// nextFloorUS.
	pending     []*JFrame
	pendHead    int
	floorUS     int64
	nextFloorUS int64

	// hot-path scratch, reused across batches
	free           []*queueEntry
	batchScratch   []*queueEntry
	validScratch   []*queueEntry
	corruptScratch []*queueEntry
	groupScratch   []*grp
	hashScratch    []uint32 // groupValid's rep hash per group
	grpFree        []*grp
	single         [1]*queueEntry

	// fullScan switches the corrupt-attach window off (see group); only the
	// differential test sets it. fullScanBatches counts the batches that
	// took the full scan.
	fullScan        bool
	fullScanBatches int64

	Stats Stats
}

// New creates a unifier over per-radio sources using bootstrap offsets.
// Radios without a bootstrap offset are skipped (unsynced partitions cannot
// be merged, as the paper observes at 10 pods).
func New(cfg Config, sources map[int32]Source, boot *timesync.Result) *Unifier {
	u := &Unifier{cfg: cfg, floorUS: math.MinInt64, nextFloorUS: math.MinInt64}
	// Deterministic initial queue population (map order varies per run).
	ids := make([]int32, 0, len(sources))
	for radio := range sources {
		if _, ok := boot.OffsetUS[radio]; ok {
			ids = append(ids, radio)
		}
	}
	slices.Sort(ids)
	for _, radio := range ids {
		tr := clock.NewOffsetTracker(boot.OffsetUS[radio])
		tr.SetSkewCompensation(cfg.SkewCompensation)
		u.radios = append(u.radios, radioState{src: sources[radio], tracker: tr, id: radio})
	}
	for ri := range u.radios {
		u.advance(int32(ri))
	}
	return u
}

// getEntry pops a recycled queue entry (or allocates the first time).
func (u *Unifier) getEntry() *queueEntry {
	if n := len(u.free); n > 0 {
		e := u.free[n-1]
		u.free = u.free[:n-1]
		return e
	}
	return new(queueEntry)
}

// putEntry recycles an entry, keeping its frame buffer for reuse.
func (u *Unifier) putEntry(e *queueEntry) {
	buf := e.buf[:0]
	*e = queueEntry{buf: buf}
	u.free = append(u.free, e)
}

func (u *Unifier) getGrp() *grp {
	if n := len(u.grpFree); n > 0 {
		g := u.grpFree[n-1]
		u.grpFree = u.grpFree[:n-1]
		return g
	}
	return new(grp)
}

func (u *Unifier) putGrp(g *grp) {
	members := g.members[:0]
	bits := g.radioBits[:0]
	*g = grp{members: members, radioBits: bits}
	u.grpFree = append(u.grpFree, g)
}

// wireHash is the content hash over raw frame bytes: the cheap dedup
// pre-filter (equal content implies equal hash, so grouping skips
// bytes.Equal on mismatched hashes). It mixes eight bytes per step (FNV-1a
// style over a 64-bit lane, folded to 32 bits), which the profile showed is
// ~8× cheaper than the byte-at-a-time FNV it replaced. The exact value
// never reaches the output stream: equal bytes always map to equal hashes
// and collisions only cost a bytes.Equal — so any deterministic function of
// the bytes preserves unifier output.
func wireHash(b []byte) uint32 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime64
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		tail[7] = byte(len(b)) // tag the tail length so padded tails differ
		h = (h ^ binary.LittleEndian.Uint64(tail[:])) * prime64
	}
	return uint32(h>>32) ^ uint32(h)
}

// advance pulls the next record for a radio into the queue, copying its
// borrowed frame bytes into entry-owned storage.
func (u *Unifier) advance(ri int32) {
	rs := &u.radios[ri]
	if rs.src == nil {
		return
	}
	rec, err := rs.src.Next()
	if err != nil {
		rs.src = nil
		return
	}
	u.Stats.Events++
	if rec.IsPhyErr() {
		u.Stats.PhyErrors++
	} else if !rec.FCSOK() {
		u.Stats.CRCErrors++
	}
	e := u.getEntry()
	e.univUS = rs.tracker.ToUniversal(rec.LocalUS)
	e.radio = rs.id
	e.ri = ri
	if rec.Frame != nil {
		// The record borrows its Frame from the reader's block buffer,
		// valid only until the source's next read — copy now.
		e.buf = append(e.buf[:0], rec.Frame...)
		rec.Frame = e.buf
		e.hash = wireHash(e.buf)
	} else {
		e.hash = wireHash(nil)
	}
	e.rec = rec
	u.heap.push(e)
}

// Next returns the next jframe in universal-time order, or io.EOF: the
// stream is sorted by (UnivUS, emission sequence), where the emission
// sequence is the order the jframes were built in.
//
// Building is not quite in that order — a resync at one batch can map a
// radio's next record below a jframe an earlier batch built — so built
// jframes wait in pending until the floor says nothing below them is still
// to come. The floor is an O(radios) scan, so it is taken once per search
// window of progress by the newest held jframe, and pending holds about that
// window.
//
// The returned frame is pooled: the caller owns one reference and must
// Release it when done (see pool.go for the full contract).
func (u *Unifier) Next() (*JFrame, error) {
	for u.pendHead == len(u.pending) || u.pending[u.pendHead].UnivUS > u.floorUS {
		if len(u.heap) == 0 {
			if u.pendHead == len(u.pending) {
				return nil, io.EOF
			}
			u.floorUS = math.MaxInt64
			break
		}
		if 2*u.pendHead >= len(u.pending) {
			n := copy(u.pending, u.pending[u.pendHead:])
			clear(u.pending[n:])
			u.pending, u.pendHead = u.pending[:n], 0
		}
		u.batch()
		if newest := u.pending[len(u.pending)-1].UnivUS; newest >= u.nextFloorUS {
			u.nextFloorUS = newest + u.cfg.SearchWindowUS
			u.floorUS = u.floor()
		}
	}
	j := u.pending[u.pendHead]
	u.pending[u.pendHead] = nil
	u.pendHead++
	return j, nil
}

// floor returns a lower bound on the UnivUS of every jframe still to be
// built (math.MaxInt64 once the queue is empty).
//
// The jframes still to be built come from the heap — one entry per radio
// with a queued head — and the records behind each head. The floor F is the
// minimum, per head, of its stored univUS and of its LocalUS under the
// radio's current tracker (the head may have been mapped before a resync
// moved the clock; the records behind it are mapped after). A jframe is
// stamped at or above its earliest member, so it suffices that every entry
// queued from now on maps at or above F, which holds by induction on
// queueing order, not by a margin. Under today's tracker state a radio's
// records are time-ordered and ToUniversal is increasing between resyncs,
// so a later record maps at or above where its head's LocalUS does. Under a
// later state, Resync maps its anchor exactly onto the jframe that caused
// it, whose members were all queued earlier: that jframe, and so every
// later record of the radio, is at or above F. A local clock stepping
// backwards breaks the first premise and can put a jframe below an earlier
// floor, so out of order; serve.Monitor degrades and counts that
// (late_events).
func (u *Unifier) floor() int64 {
	floor := int64(math.MaxInt64)
	for _, e := range u.heap {
		floor = min(floor, e.univUS, u.radios[e.ri].tracker.ToUniversal(e.rec.LocalUS))
	}
	return floor
}

// batch pops a run of instances, groups them into jframes appended to
// pending, and recycles the consumed entries.
//
// The boundary rule must never cut through a cluster of instances of one
// transmission (cluster diameter is bounded by clock dispersion, well under
// GapUS), so there are two rules. A batch closes at the first gap between
// successive instances larger than GapUS, or than the search window when
// either instance's radio is untrusted. To bound work during dense bursts it
// also closes, gap or not, once the next instance lies more than four search
// windows past its first.
func (u *Unifier) batch() {
	first := u.heap.popMin()
	u.advance(first.ri)
	batch := append(u.batchScratch[:0], first)
	last := first.univUS
	lastRI := first.ri
	for len(u.heap) > 0 {
		head := u.heap[0]
		gap := head.univUS - last
		gapLimit := u.cfg.GapUS
		// An untrusted radio (no recent resync) may be placed hundreds of
		// microseconds off; keep the batch open across the full search
		// window so its instances can still reach their group — this is
		// what the paper's wide search window buys.
		if !u.trusted(head.ri, head.univUS) || !u.trusted(lastRI, last) {
			gapLimit = u.cfg.SearchWindowUS
		}
		if gap > gapLimit {
			break // natural boundary between transmissions
		}
		if head.univUS-first.univUS > 4*u.cfg.SearchWindowUS {
			break // hard cap
		}
		e := u.heap.popMin()
		u.advance(e.ri)
		batch = append(batch, e)
		last = e.univUS
		lastRI = e.ri
	}
	u.group(batch)
	for _, e := range batch {
		u.putEntry(e)
	}
	u.batchScratch = batch[:0]
}

// trusted reports whether a radio's clock mapping has been confirmed by
// recent resynchronization: enough samples and not too long coasting.
func (u *Unifier) trusted(ri int32, nowUnivUS int64) bool {
	tr := u.radios[ri].tracker
	if tr.Resyncs() < 3 {
		return false
	}
	return nowUnivUS-tr.LastResyncUnivUS() <= trustedCoastUS
}

// trustedCoastUS is how long a clock may coast before its placements are
// treated as loose again (20 ppm over 5 s is 100 µs of drift).
const trustedCoastUS = 5_000_000

// joinTol returns the grouping tolerance for instance e: tight for trusted
// radios, the full search window for untrusted ones.
func (u *Unifier) joinTol(e *queueEntry) int64 {
	if u.trusted(e.ri, e.univUS) {
		return u.cfg.JoinToleranceUS
	}
	return u.cfg.SearchWindowUS
}

// near reports whether two instances' universal timestamps are within tol.
func near(a, b *queueEntry, tol int64) bool {
	d := a.univUS - b.univUS
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// contentEqual compares two frame captures with the paper's short-circuit:
// length, rate and FCS first, then bytes.
func contentEqual(a, b *tracefile.Record) bool {
	if len(a.Frame) != len(b.Frame) || a.Rate != b.Rate {
		return false
	}
	return bytes.Equal(a.Frame, b.Frame)
}

// newGroup starts a group from e with its capture's decode f (decErr set
// when the header did not parse); the decode is reused for transmitter
// matching and final emission.
func (u *Unifier) newGroup(e *queueEntry, f dot80211.Frame, decErr, valid bool) *grp {
	g := u.getGrp()
	g.rep = e
	g.frame = f
	g.decErr = decErr
	g.tx = f.Transmitter()
	g.ctrl = f.Type == dot80211.TypeControl
	g.valid = valid
	g.members = append(g.members[:0], e)
	g.radioBits = g.radioBits[:0]
	g.addRadio(e.ri)
	return g
}

// groupValid places valid entries into content groups, returned in
// creation order: a frame joins the first group with matching content whose
// radio set doesn't already contain it — a single radio cannot receive one
// transmission twice, which is how identical-content frames (ACK trains,
// retransmissions) in one batch still separate into distinct jframes.
//
// A dense batch holds thousands of groups, so the scan runs over a column of
// their representatives' hashes and touches a group only on a hash match.
func (u *Unifier) groupValid(entries []*queueEntry) []*grp {
	groups := u.groupScratch[:0]
	hashes := u.hashScratch[:0]
	for _, e := range entries {
		placed := false
		for i, h := range hashes {
			if h != e.hash {
				continue
			}
			g := groups[i]
			if g.hasRadio(e.ri) {
				continue
			}
			tol := max64(u.joinTol(e), u.joinTol(g.rep))
			if near(e, g.rep, tol) && contentEqual(&g.rep.rec, &e.rec) {
				g.members = append(g.members, e)
				g.addRadio(e.ri)
				placed = true
				break
			}
		}
		if !placed {
			f, _, err := dot80211.DecodeCapture(e.rec.Frame)
			groups = append(groups, u.newGroup(e, f, err != nil, true))
			hashes = append(hashes, e.hash)
		}
	}
	u.hashScratch = hashes[:0]
	return groups
}

// attachTarget returns the first group of seg that corrupt instance e
// (decoded as f) may attach to, or nil. Groups whose representative lies
// past hiUS end the scan: the caller passes e's upper tolerance bound when
// seg is ascending in representative time, math.MaxInt64 otherwise.
func attachTarget(seg []*grp, e *queueEntry, f *dot80211.Frame, tol, hiUS int64) *grp {
	tx := f.Transmitter()
	ctrl := f.Type == dot80211.TypeControl && !f.Addr1.IsZero()
	for _, g := range seg {
		if g.rep.univUS > hiUS {
			break
		}
		if g.hasRadio(e.ri) || !near(e, g.rep, tol) {
			continue
		}
		// Attach by transmitter (the paper's rule); control frames carry no
		// transmitter, so ACK/CTS corruptions match on subtype plus receiver
		// address instead.
		if !tx.IsZero() && g.tx == tx ||
			ctrl && g.ctrl && g.frame.Subtype == f.Subtype && g.frame.Addr1 == f.Addr1 {
			return g
		}
	}
	return nil
}

// group partitions a batch into jframes appended to pending. Valid frames
// group by exact content; corrupted frames attach by decoded transmitter
// address (§4.2), to a valid group if one exists or to each other
// otherwise; phy errors become singleton error jframes.
func (u *Unifier) group(batch []*queueEntry) {
	start := len(u.pending)
	valid := u.validScratch[:0]
	corrupt := u.corruptScratch[:0]

	// The heap pops a batch in ascending universal time unless a resync at
	// the previous batch's emission re-mapped a radio's next record to
	// before the entry just popped; the windowed attach below needs the
	// order, so note whether this batch has it.
	ascending := true
	prevUS := batch[0].univUS
	for _, e := range batch {
		if e.univUS < prevUS {
			ascending = false
		}
		prevUS = e.univUS
		switch {
		case e.rec.IsPhyErr():
			u.single[0] = e
			u.pending = append(u.pending, u.emit(u.single[:], nil))
		case e.rec.FCSOK():
			valid = append(valid, e)
		default:
			corrupt = append(corrupt, e)
		}
	}

	groups := u.groupValid(valid)

	// Attach corrupted instances, preferring valid groups (groups[:nValid])
	// over corrupt-only ones (appended behind them as they form). Corrupt
	// frames never drive resynchronization, so the wide untrusted-radio
	// tolerance buys nothing and multiplies false matches; always attach
	// tightly.
	//
	// In an ascending batch both segments are ascending in representative
	// time (valid groups in creation order, corrupt-only ones in corrupt
	// order) and so are the corrupt instances, so one cursor per segment
	// tracks the first group not below e-tol and the scan stops past e+tol:
	// exactly the groups near() would accept, in the same order, without
	// walking the whole batch for each of them. Any other batch takes the
	// full scan.
	tol := 2 * u.cfg.JoinToleranceUS
	windowed := ascending && !u.fullScan
	if !windowed && len(corrupt) > 0 {
		u.fullScanBatches++
	}
	nValid := len(groups)
	vlo, clo := 0, nValid
	for _, e := range corrupt {
		f, _, err := dot80211.DecodeCapture(e.rec.Frame) // partial decode is fine
		hiUS := int64(math.MaxInt64)
		if windowed {
			hiUS = e.univUS + tol
			for vlo < nValid && groups[vlo].rep.univUS < e.univUS-tol {
				vlo++
			}
			for clo < len(groups) && groups[clo].rep.univUS < e.univUS-tol {
				clo++
			}
		}
		target := attachTarget(groups[vlo:nValid], e, &f, tol, hiUS)
		if target == nil {
			target = attachTarget(groups[clo:], e, &f, tol, hiUS)
		}
		if target != nil {
			target.members = append(target.members, e)
			target.addRadio(e.ri)
		} else {
			groups = append(groups, u.newGroup(e, f, err != nil, false))
		}
	}

	for _, g := range groups {
		u.pending = append(u.pending, u.emit(g.members, g))
	}

	// Keep everything held sorted by (UnivUS, emission sequence). The batch's
	// own jframes are far from sorted: phy-error singletons come first, then
	// the valid groups, then the corrupt-only ones, each set spanning the
	// batch — up to four search windows and thousands of jframes in a dense
	// building. So sort them once, stably, and then insert each into the held
	// tail from the back; that moves only the jframes a resync put below
	// ones an earlier batch built.
	slices.SortStableFunc(u.pending[start:], byUnivUS)
	for i := start; i < len(u.pending); i++ {
		j := u.pending[i]
		k := i - 1
		for k >= u.pendHead && u.pending[k].UnivUS > j.UnivUS {
			u.pending[k+1] = u.pending[k]
			k--
		}
		u.pending[k+1] = j
	}

	for _, g := range groups {
		u.putGrp(g)
	}
	u.groupScratch = groups[:0]
	u.validScratch = valid[:0]
	u.corruptScratch = corrupt[:0]
}

// emit builds a jframe from grouped instances and applies
// resynchronization. g carries the representative's cached decode; nil
// means a phy-error singleton.
func (u *Unifier) emit(members []*queueEntry, g *grp) *JFrame {
	j := NewJFrame()
	if cap(j.Instances) < len(members) {
		j.Instances = make([]Instance, 0, len(members))
	}
	for _, e := range members {
		j.Instances = append(j.Instances, Instance{
			Radio: e.radio, LocalUS: e.rec.LocalUS, UnivUS: e.univUS,
			RSSIdBm: e.rec.RSSIdBm, FCSOK: e.rec.FCSOK(), PhyErr: e.rec.IsPhyErr(),
		})
	}
	sortInstances(j.Instances)
	// Median timestamp and group dispersion over the FCS-valid instances:
	// those are the radios whose clock agreement the jframe evidences.
	// Corrupt attachments ride along without weighing on either metric.
	lo, hi, mid, nOK := int64(0), int64(0), int64(0), 0
	for _, in := range j.Instances {
		if !in.FCSOK {
			continue
		}
		if nOK == 0 {
			lo = in.UnivUS
		}
		hi = in.UnivUS
		nOK++
	}
	if nOK > 0 {
		// Median per §4.2: for an even-sized group the midpoint of the two
		// middle timestamps — picking either middle instance alone would
		// bias the universal timestamp early or late by up to half the
		// group dispersion. Instances are sorted, so the middles are the
		// (nOK-1)/2-th and nOK/2-th valid ones (equal when nOK is odd).
		k, midLo := 0, int64(0)
		for _, in := range j.Instances {
			if in.FCSOK {
				if k == (nOK-1)/2 {
					midLo = in.UnivUS
				}
				if k == nOK/2 {
					mid = midLo + (in.UnivUS-midLo)/2
				}
				k++
			}
		}
		j.UnivUS = mid
		j.DispersionUS = hi - lo
	} else {
		j.UnivUS = j.Instances[len(j.Instances)/2].UnivUS
		j.DispersionUS = j.Instances[len(j.Instances)-1].UnivUS - j.Instances[0].UnivUS
	}
	if j.DispersionUS > u.Stats.MaxDispersUS {
		u.Stats.MaxDispersUS = j.DispersionUS
	}

	if g == nil {
		j.PhyOnly = true
		j.Channel = dot80211.Channel(members[0].rec.Channel)
		u.Stats.JFrames++
		return j
	}
	rep := g.rep
	j.SetWire(rep.rec.Frame)
	j.WireLen = int(rep.rec.OrigLen)
	j.Rate = dot80211.Rate(rep.rec.Rate)
	j.Channel = dot80211.Channel(rep.rec.Channel)
	// The capture hardware validated the FCS on the air; a snapped capture
	// cannot re-validate, so trust the record's flag once the header
	// parses. The decode was cached at grouping time; its Body aliases the
	// representative entry's buffer, so re-point it into the jframe's own
	// wire copy.
	j.Frame = g.frame
	j.rebaseBody(&g.frame)
	j.Valid = rep.rec.FCSOK() && !g.decErr
	u.Stats.JFrames++
	u.Stats.Unified += int64(len(members))

	// Continuous resynchronization: only unique frames drive clocks, and
	// only when dispersion exceeds the threshold (§4.2's accuracy/overhead
	// tradeoff).
	if j.Valid && j.Frame.UniqueForSync() && len(members) >= 2 &&
		j.DispersionUS >= u.cfg.ResyncDispersionUS {
		for _, e := range members {
			if !e.rec.FCSOK() {
				continue
			}
			u.radios[e.ri].tracker.Resync(e.rec.LocalUS, j.UnivUS)
			u.Stats.Resyncs++
		}
	}
	return j
}

// byUnivUS orders jframes by universal timestamp.
func byUnivUS(a, b *JFrame) int { return cmp.Compare(a.UnivUS, b.UnivUS) }

// sortInstances orders instances by universal timestamp. Small groups —
// the overwhelmingly common case — use an inline insertion sort, which is
// allocation-free and matches sort.Slice's permutation exactly (Go's
// pdqsort is insertion sort at or below 12 elements); larger groups use
// slices.SortFunc, the same pdqsort without sort.Slice's reflection
// swapper, so the historical tie order holds bit-for-bit.
func sortInstances(in []Instance) {
	if len(in) <= 12 {
		for i := 1; i < len(in); i++ {
			for k := i; k > 0 && in[k].UnivUS < in[k-1].UnivUS; k-- {
				in[k], in[k-1] = in[k-1], in[k]
			}
		}
		return
	}
	slices.SortFunc(in, func(a, b Instance) int { return cmp.Compare(a.UnivUS, b.UnivUS) })
}

// Drain consumes the whole stream, returning all jframes. The caller owns
// every returned frame (one reference each).
func (u *Unifier) Drain() ([]*JFrame, error) {
	var out []*JFrame
	for {
		j, err := u.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, j)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
