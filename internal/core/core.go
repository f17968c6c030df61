// Package core wires Jigsaw's stages into the pipeline the paper
// describes: bootstrap synchronization over the first window of every
// per-radio trace (§4.1), streaming frame unification with continuous
// resynchronization (§4.2), and link-layer reconstruction into transmission
// attempts and frame exchanges (§5.1). Transport-layer flow analysis with
// the TCP delivery oracle (§5.2) is not a stage: it is an analysis over the
// exchanges, and the passes that report it (internal/analysis's summary and
// tcploss) share one internal/transport analyzer per pass set.
//
// The pipeline operates in a single pass over the trace data (after the
// bootstrap pre-scan), the property that lets the real system run online,
// faster than real time. The pass is three stages — the jframe stream
// (unification, or the hierarchical path's global merge), link-layer
// reconstruction with its canonical close-order release, and everything
// that consumes the products (sinks and analysis passes) — written once and
// composed two ways:
//
//   - Config.Workers == 1 calls them directly, one inside the other, on the
//     caller's goroutine;
//   - any other value runs the same three functions as a pipeline: the
//     stream on one goroutine, reconstruction on a second, the consumers on
//     the caller's, with a small channel of pooled slabs (~64 items,
//     sixteen deep) at each of the two cuts. The bootstrap pre-scan, whose
//     per-radio windows are independent, additionally fans out over
//     Workers goroutines.
//
// Nothing is sharded, reordered or re-merged: the pipelined run is the
// inline code cut at two points, so the consumers see exactly the inline
// event order — each jframe, then the exchanges the reconstruction
// watermark released behind it — and every Result, report and callback
// sequence is identical at every Workers setting, which the tests assert.
// Unification is inherently serial (one priority queue over all radios) and
// is most of the work, so it bounds the pipeline; the other two stages
// overlap it on a second core.
package core

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/llc"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// Config tunes the pipeline.
type Config struct {
	// Unify holds the unifier's operating point (search window, resync
	// threshold, skew compensation).
	Unify unify.Config
	// BootstrapWindowUS is how much of each trace the bootstrap examines
	// (paper: the first second).
	BootstrapWindowUS int64
	// Workers selects how the pipeline's three stages are composed: 1 runs
	// them inline on the caller's goroutine; any other value runs them as a
	// three-stage pipeline (stream | reconstruction | consumers, see the
	// package comment), which has the same shape whatever the number. The
	// number itself sizes the bootstrap pre-scan's goroutine pool. 0 means
	// GOMAXPROCS. Results are identical at every setting; a pipelined run
	// delivers each product later than an inline one by whatever is queued
	// at the two cuts — a partly filled slab each while the consumers keep
	// up.
	Workers int
	// Passes are streaming analysis observers fed inline as the pipeline
	// emits jframes and exchanges: the one way to look at a run's products,
	// in memory bounded by what each pass keeps. The internal/analysis
	// passes satisfy this interface.
	Passes []Pass
	// SnapshotEveryUS, when > 0, re-delivers the run's aggregate result
	// (unify/llc stats, and Result.CompleteUS: how far the product
	// streams are complete) to every ResultSink pass each time the
	// reconstruction watermark advances this far — the live-monitoring hook:
	// a consumer learns in flight what it may act on, and result-derived
	// report fields stay current. The watermark advances only on FCS-valid
	// jframes. Snapshot points sit at the same places in the product stream
	// at every Workers setting; a pipelined one carries the stream's current
	// slab's view, so its unify counters may run up to a slab ahead of the
	// inline ones. The final SetResult before RunFrom returns happens either
	// way; with 0 it is the only one.
	SnapshotEveryUS int64
}

// Pass is a streaming analysis observer the pipeline feeds inline, the
// structural contract internal/analysis's Pass type implements (defined
// here so core does not import the analysis layer it feeds).
//
// Delivery contract, identical at every Workers setting:
//
//   - Every callback comes from the goroutine that called RunFrom or
//     RunHierarchical, one at a time: a pass needs no locking, and never
//     sees two concurrent callbacks.
//   - ObserveJFrame is called with every unified jframe in time order:
//     sorted by (UnivUS, emission sequence), the order of the unifier's
//     stream and of a .jfs stream alike.
//   - ObserveExchange is called with every reconstructed exchange in
//     canonical close order (the order transport analysis consumes).
//   - When ObserveExchange(ex) fires, every jframe stamped at or below the
//     reconstruction watermark that released ex has been observed. A pass
//     that needs every jframe up to some other time — the end of an
//     attempt, which can lie past ex.CloseUS — defers the exchange until
//     its jframe frontier reaches that time (see internal/analysis's
//     exchange deferral).
//   - Frames and exchanges are borrowed for the duration of the call and
//     must not be modified: reconstruction may still be reading them on
//     another goroutine.
//   - Callbacks stop before RunFrom returns; the caller finalizes passes
//     afterwards.
type Pass interface {
	ObserveJFrame(*unify.JFrame)
	ObserveExchange(*llc.Exchange)
}

// ResultSink is implemented by passes that need the run's aggregate result
// (unify/llc stats, CompleteUS) to finalize; the pipeline calls SetResult
// after the pass has observed both full streams, before RunFrom returns
// (and at every snapshot point before that, see Config.SnapshotEveryUS).
type ResultSink interface {
	SetResult(*Result)
}

// DefaultConfig returns the paper's defaults (Workers auto-sizes to the
// machine).
func DefaultConfig() Config {
	return Config{
		Unify:             unify.DefaultConfig(),
		BootstrapWindowUS: timesync.DefaultWindowUS,
	}
}

// Sink receives pipeline products as they stream. Any callback may be nil.
// Both callbacks follow Pass's delivery contract: they are invoked from the
// caller's goroutine, in stream order, never concurrently, and just before
// the passes see the same product.
type Sink struct {
	OnJFrame   func(*unify.JFrame)
	OnExchange func(*llc.Exchange)
}

// DispersionHistogram buckets jframe group dispersion in 1 µs bins up to
// its length; the tail bucket absorbs the rest. Only multi-instance jframes
// count (a singleton has no dispersion), matching Figure 4.
type DispersionHistogram struct {
	Bins  []int64 // Bins[i] counts dispersion == i µs
	Tail  int64
	Total int64
}

// Add records one dispersion value.
func (h *DispersionHistogram) Add(us int64) {
	h.Total++
	if int(us) < len(h.Bins) {
		h.Bins[us]++
	} else {
		h.Tail++
	}
}

// Percentile returns the smallest dispersion d such that at least p
// (0..1) of jframes have dispersion ≤ d — the nearest-rank rule, rank
// ⌈p·Total⌉ and at least 1, as analysis.InterferenceReport.XPercentile — or
// -1 if the answer lies in the tail.
func (h *DispersionHistogram) Percentile(p float64) int64 {
	if h.Total == 0 {
		return 0
	}
	need := max(int64(math.Ceil(p*float64(h.Total))), 1)
	var cum int64
	for i, c := range h.Bins {
		cum += c
		if cum >= need {
			return int64(i)
		}
	}
	return -1
}

// Result summarizes one pipeline run: the stages' aggregate counters. The
// jframes and exchanges themselves are not kept; Config.Passes (or a Sink)
// sees each one as it streams by, and whatever is reported about them —
// transport analysis included — is reported by a pass.
type Result struct {
	Bootstrap  *timesync.Result
	UnifyStats unify.Stats
	LLCStats   llc.Stats
	Dispersion DispersionHistogram
	// CompleteUS is how far the two product streams are complete: every
	// jframe stamped below it and every exchange closed below it has been
	// delivered. At a snapshot point (Config.SnapshotEveryUS) it is the
	// reconstructor's watermark, a lower bound by construction over a
	// time-ordered jframe stream; in the final result, math.MaxInt64.
	CompleteUS int64
}

// RunFrom executes the full pipeline over a TraceSet, streaming each
// radio's trace through the pass (two sequential opens per radio: the
// bootstrap pre-scan, then the merge). When the set is directory-backed,
// heap and resident set both stay O(search window) per radio regardless of
// trace length: a decoded block per radio, and of each mapped trace only the
// pages around its reader (tracefile.MmapSource gives back the rest). The
// buffer-backed case additionally holds the compressed bytes the caller
// already owns. clockGroups lists radios sharing a physical clock for
// cross-channel bridging.
func RunFrom(ts *tracefile.TraceSet, clockGroups [][]int32, cfg Config, sink *Sink) (*Result, error) {
	if ts == nil || ts.Len() == 0 {
		return nil, fmt.Errorf("core: no traces")
	}
	if cfg.BootstrapWindowUS == 0 {
		cfg.BootstrapWindowUS = timesync.DefaultWindowUS
	}
	if cfg.Unify.SearchWindowUS == 0 {
		cfg.Unify = unify.DefaultConfig()
	}
	workers := cfg.workers()

	// Phase 1: bootstrap over each trace's first window.
	boot, err := timesync.BootstrapSet(ts, clockGroups, cfg.BootstrapWindowUS, workers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Phase 2: single pass — unify, reconstruct, analyze.
	sources, sourceFault := unify.TraceSources(ts)
	u := unify.New(cfg.Unify, sources, boot)
	res, err := run(unifierStream{u}, boot, cfg, sink, workers)
	if err != nil {
		return nil, err
	}
	if err := sourceFault(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	finish(cfg.Passes, res)
	return res, nil
}

// workers resolves Config.Workers' default.
func (cfg *Config) workers() int {
	if cfg.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.Workers
}

// finish hands the result to every pass that wants it.
func finish(passes []Pass, res *Result) {
	for _, p := range passes {
		if rs, ok := p.(ResultSink); ok {
			rs.SetResult(res)
		}
	}
}

// exchangeLess is the canonical exchange order: close stamp first, then
// deterministic tiebreaks.
func exchangeLess(a, b *llc.Exchange) bool {
	if a.CloseUS != b.CloseUS {
		return a.CloseUS < b.CloseUS
	}
	if a.StartUS != b.StartUS {
		return a.StartUS < b.StartUS
	}
	if a.EndUS != b.EndUS {
		return a.EndUS < b.EndUS
	}
	if c := bytes.Compare(a.Transmitter[:], b.Transmitter[:]); c != 0 {
		return c < 0
	}
	if c := bytes.Compare(a.Receiver[:], b.Receiver[:]); c != 0 {
		return c < 0
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Delivery != b.Delivery {
		return a.Delivery < b.Delivery
	}
	return len(a.Attempts) < len(b.Attempts)
}

// exchangeHeap orders closed exchanges by the canonical close key.
type exchangeHeap []*llc.Exchange

func (h exchangeHeap) Len() int           { return len(h) }
func (h exchangeHeap) Less(i, j int) bool { return exchangeLess(h[i], h[j]) }
func (h exchangeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *exchangeHeap) Push(x any)        { *h = append(*h, x.(*llc.Exchange)) }
func (h *exchangeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// The driver's three stages (see the package comment) follow: a
// jframeStream, reconstruct over it, and consumer.handle behind that — and
// the two ways run composes them.

// jframeStream is stage 1: unified jframes in time order. Next returns
// io.EOF at the clean end of the stream.
type jframeStream interface {
	Next() (*unify.JFrame, error)
	// Stats returns the stream's unification counters, current at least up
	// to the last frame Next returned.
	Stats() unify.Stats
}

// unifierStream is the flat path's stage 1.
type unifierStream struct{ u *unify.Unifier }

func (s unifierStream) Next() (*unify.JFrame, error) { return s.u.Next() }
func (s unifierStream) Stats() unify.Stats           { return s.u.Stats }

// event is one item of the stream stage 2 hands stage 3; exactly one field
// is set.
type event struct {
	j    *unify.JFrame // observe, then drop the stream's reference
	ex   *llc.Exchange // deliver and analyze, then drop its frames' references
	snap *snapshot     // re-deliver the result as of this point
}

// snapshot is the upstream stages' counters at one point of the stream, and
// how far what was emitted before it is complete (Result.CompleteUS).
type snapshot struct {
	unify      unify.Stats
	llc        llc.Stats
	completeUS int64
}

// reconstruct is stage 2 over stage 1: it drains src through one
// reconstructor and emits the event stream, releasing exchanges in
// canonical close order as the reconstructor's watermark passes them so
// the pass stays online with bounded buffering. It returns the final
// counters. On a stream error everything reconstruction still holds is
// released, not emitted.
func reconstruct(src jframeStream, snapEveryUS int64, emit func(event)) (snapshot, error) {
	rec := llc.NewReconstructor()
	h := &exchangeHeap{}
	release := func(limit int64) {
		for h.Len() > 0 && (*h)[0].CloseUS < limit {
			emit(event{ex: heap.Pop(h).(*llc.Exchange)})
		}
	}
	var lastSnapUS int64
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			for _, ex := range rec.Flush() {
				ex.Release()
			}
			for _, ex := range *h {
				ex.Release()
			}
			return snapshot{}, fmt.Errorf("core: jframe stream: %w", err)
		}
		// The reconstructor retains what it stores; the stream's reference
		// travels on with the event and ends in stage 3.
		rec.Process(j)
		emit(event{j: j})
		for _, ex := range rec.Take() {
			heap.Push(h, ex)
		}
		wm := rec.Watermark()
		release(wm)
		if snapEveryUS > 0 && wm >= lastSnapUS+snapEveryUS {
			lastSnapUS = wm
			emit(event{snap: &snapshot{unify: src.Stats(), llc: rec.Stats, completeUS: wm}})
		}
	}
	for _, ex := range rec.Flush() {
		heap.Push(h, ex)
	}
	release(math.MaxInt64)
	return snapshot{unify: src.Stats(), llc: rec.Stats, completeUS: math.MaxInt64}, nil
}

// consumer is stage 3: everything that looks at the pipeline's products.
// handle is only ever called from the goroutine that called RunFrom or
// RunHierarchical, one event at a time.
type consumer struct {
	res  *Result
	cfg  *Config
	sink *Sink
}

func (c *consumer) handle(ev event) {
	res, cfg := c.res, c.cfg
	switch {
	case ev.j != nil:
		// Sinks and passes borrow the frame for the duration of the call.
		j := ev.j
		if len(j.Instances) >= 2 {
			res.Dispersion.Add(j.DispersionUS)
		}
		if c.sink.OnJFrame != nil {
			c.sink.OnJFrame(j)
		}
		for _, p := range cfg.Passes {
			p.ObserveJFrame(j)
		}
		j.Release()
	case ev.ex != nil:
		ex := ev.ex
		if c.sink.OnExchange != nil {
			c.sink.OnExchange(ex)
		}
		for _, p := range cfg.Passes {
			p.ObserveExchange(ex)
		}
		// The stream's ownership of the exchange's jframes ends here.
		ex.Release()
	default:
		res.UnifyStats, res.LLCStats, res.CompleteUS = ev.snap.unify, ev.snap.llc, ev.snap.completeUS
		finish(cfg.Passes, res)
	}
}

// Pipelined-mode tuning: a slab carries up to slabSize items across a cut,
// amortizing channel synchronization; stageChanBuf slabs may queue per cut.
// The stages are bursty — the watermark releases exchanges in runs, passes
// that defer exchanges flush them in runs — and whenever a queue runs full
// or dry its neighbour stalls while a core idles: on the two-core reference
// box 16 slabs deep runs the hierarchical job 21 % and the flat job 8 %
// faster than 4 deep, for about 2 MB of extra frames in flight, and 64 deep
// adds nothing.
const (
	defaultSlabSize = 64
	stageChanBuf    = 16
)

// slabSize is a variable, not a constant, only so tests can force
// degenerate slab sizes and assert the output does not depend on them.
var slabSize = defaultSlabSize

// jframeSlab is one hop's worth of the jframe stream across the first cut.
type jframeSlab struct {
	frames []*unify.JFrame
	stats  unify.Stats // the stream's counters as of the last frame
	err    error       // set on the stream's last slab: io.EOF or its failure
}

// Slabs follow a strict get/fill/send/drain/put contract: the sender gets
// a slab, fills it with items it owns (a jframe's reference rides inside),
// sends it, and the receiver puts it back once drained. slabBalance counts
// outstanding slabs (gets minus puts) so tests can assert every slab
// returns to its pool.
var (
	slabBalance    atomic.Int64
	jframeSlabPool = sync.Pool{New: func() any { return new(jframeSlab) }}
	eventSlabPool  = sync.Pool{New: func() any { return new([]event) }}
)

func getJFrameSlab() *jframeSlab {
	slabBalance.Add(1)
	return jframeSlabPool.Get().(*jframeSlab)
}

func putJFrameSlab(s *jframeSlab) {
	clear(s.frames) // drop stale jframe pointers before pooling
	*s = jframeSlab{frames: s.frames[:0]}
	slabBalance.Add(-1)
	jframeSlabPool.Put(s)
}

func getEventSlab() *[]event {
	slabBalance.Add(1)
	return eventSlabPool.Get().(*[]event)
}

func putEventSlab(s *[]event) {
	clear(*s)
	*s = (*s)[:0]
	slabBalance.Add(-1)
	eventSlabPool.Put(s)
}

// slabStream is the receiving end of the first cut: a jframeStream fed by
// pump through a channel of slabs.
type slabStream struct {
	ch  <-chan *jframeSlab
	cur *jframeSlab
	i   int
}

// pump runs src to its end, sending what it yields down ch in slabs and
// closing ch behind the last one. Nothing downstream stops before the stream
// does, so the sends need no cancellation.
func pump(src jframeStream, ch chan<- *jframeSlab) {
	defer close(ch)
	for {
		s := getJFrameSlab()
		for s.err == nil && len(s.frames) < slabSize {
			j, err := src.Next()
			if err != nil {
				s.err = err
				break
			}
			s.frames = append(s.frames, j)
		}
		s.stats = src.Stats()
		last := s.err != nil // the slab is the receiver's once sent
		ch <- s
		if last {
			return
		}
	}
}

func (s *slabStream) Next() (*unify.JFrame, error) {
	for s.cur == nil || s.i == len(s.cur.frames) {
		if s.cur != nil {
			if s.cur.err != nil {
				return nil, s.cur.err
			}
			putJFrameSlab(s.cur)
		}
		s.cur, s.i = <-s.ch, 0
	}
	j := s.cur.frames[s.i]
	s.i++
	return j, nil
}

func (s *slabStream) Stats() unify.Stats { return s.cur.stats }

// pipelined is reconstruct(src, snapEveryUS, handle) cut into three
// goroutines: src is pumped on one, reconstruction runs on a second, and
// handle is called on this one. It returns once both have exited.
func pipelined(src jframeStream, snapEveryUS int64, handle func(event)) (final snapshot, err error) {
	// Both channels are buffered stageChanBuf slabs deep; see the constant.
	frames := make(chan *jframeSlab, stageChanBuf)
	events := make(chan *[]event, stageChanBuf)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		pump(src, frames)
	}()
	go func() {
		defer wg.Done()
		defer close(events)
		stream := &slabStream{ch: frames}
		slab := getEventSlab()
		final, err = reconstruct(stream, snapEveryUS, func(ev event) {
			*slab = append(*slab, ev)
			if len(*slab) >= slabSize {
				events <- slab
				slab = getEventSlab()
			}
		})
		putJFrameSlab(stream.cur) // the stream's last slab, kept for Stats
		events <- slab
	}()
	for slab := range events {
		for _, ev := range *slab {
			handle(ev)
		}
		putEventSlab(slab)
	}
	wg.Wait()
	return final, err
}

// run drives the three stages over src and returns the finished result
// (passes not yet given it).
func run(src jframeStream, boot *timesync.Result, cfg Config, sink *Sink, workers int) (*Result, error) {
	if sink == nil {
		sink = &Sink{}
	}
	res := &Result{
		Bootstrap:  boot,
		Dispersion: DispersionHistogram{Bins: make([]int64, 1000)},
	}
	c := &consumer{res: res, cfg: &cfg, sink: sink}
	drive := pipelined
	if workers == 1 {
		drive = reconstruct
	}
	final, err := drive(src, cfg.SnapshotEveryUS, c.handle)
	if err != nil {
		return nil, err
	}
	res.UnifyStats, res.LLCStats, res.CompleteUS = final.unify, final.llc, final.completeUS
	return res, nil
}
