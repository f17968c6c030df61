package main

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/hmerge"
	"repro/internal/llc"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/transport"
	"repro/internal/unify"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around calls into each layer's public API. A span with Calls > 0
// folds that many short calls (one per record or jframe) into one entry:
// BusyNS is the sum of their durations, and start/end bracket them.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1: a stage of the traced run
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Calls    int64  `json:"calls,omitempty"`
	BusyNS   int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the suite ends.
type tracer struct {
	epoch    time.Time
	workload string // the traced run the next spans belong to
	spans    []span
	open     []int
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

func (t *tracer) begin(name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Workload: t.workload, StartNS: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost span, which must be id.
func (t *tracer) end(id int) {
	if t.parent() != id {
		panic(fmt.Sprintf("trace: closing span %d inside %d", id, t.parent()))
	}
	t.spans[id].EndNS = t.now()
	t.open = t.open[:len(t.open)-1]
}

// fold records a callTimer as a child of the innermost open span.
func (t *tracer) fold(name string, c *callTimer) {
	p := t.parent()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: p, Name: name, Workload: t.workload,
		StartNS: t.spans[p].StartNS, EndNS: t.now(), Calls: c.calls, BusyNS: c.busy.Nanoseconds(),
	})
}

// covered is the time a span accounts for; self is that minus its children.
func (s *span) covered() float64 {
	if s.Calls > 0 {
		return float64(s.BusyNS)
	}
	return float64(s.EndNS - s.StartNS)
}

func (t *tracer) self(id int) float64 {
	ns := t.spans[id].covered()
	for i := range t.spans {
		if t.spans[i].Parent == id {
			ns -= t.spans[i].covered()
		}
	}
	return ns
}

// callTimer sums the durations of many short calls.
type callTimer struct {
	calls int64
	busy  time.Duration
}

func (c *callTimer) since(t0 time.Time) {
	c.calls++
	c.busy += time.Since(t0)
}

// radioSource adapts one radio of a trace set to unify.Source the way the
// pipeline's own sources do (lazy open, closed at end of trace, read
// errors kept), timing every call into the tracefile layer.
type radioSource struct {
	ts    *tracefile.TraceSet
	radio int32
	timer *callTimer
	r     *tracefile.Reader
	rc    io.Closer
	done  bool
	err   error
}

func (s *radioSource) Next() (tracefile.Record, error) {
	t0 := time.Now()
	rec, err := s.next()
	s.timer.since(t0)
	return rec, err
}

func (s *radioSource) next() (tracefile.Record, error) {
	if s.done {
		return tracefile.Record{}, io.EOF
	}
	if s.r == nil {
		rc, err := s.ts.Open(s.radio)
		if err != nil {
			s.done, s.err = true, err
			return tracefile.Record{}, err
		}
		s.rc, s.r = rc, tracefile.NewReader(rc)
	}
	rec, err := s.r.Next()
	if err != nil {
		s.done = true
		if cerr := s.rc.Close(); err == io.EOF && cerr != nil {
			err = cerr
		}
		if err != io.EOF {
			s.err = err
		}
		return tracefile.Record{}, err
	}
	return rec, nil
}

// timedPasses runs a pass set behind one core.Pass and times each pass's
// callbacks with consecutive clock readings.
type timedPasses struct {
	passes []analysis.Pass
	busy   []time.Duration
}

func (t *timedPasses) ObserveJFrame(j *unify.JFrame) {
	prev := time.Now()
	for i, p := range t.passes {
		p.ObserveJFrame(j)
		now := time.Now()
		t.busy[i] += now.Sub(prev)
		prev = now
	}
}

func (t *timedPasses) ObserveExchange(ex *llc.Exchange) {
	prev := time.Now()
	for i, p := range t.passes {
		p.ObserveExchange(ex)
		now := time.Now()
		t.busy[i] += now.Sub(prev)
		prev = now
	}
}

// SetResult implements core.ResultSink for the passes that want the result.
func (t *timedPasses) SetResult(res *core.Result) {
	for i, p := range t.passes {
		if rs, ok := p.(core.ResultSink); ok {
			t0 := time.Now()
			rs.SetResult(res)
			t.busy[i] += time.Since(t0)
		}
	}
}

// frontTrace is the traced front half over a flat trace directory.
type frontTrace struct {
	records   int64
	compBytes int64
	scanNS    float64 // tracefile: every radio read to EOF
	decodeNS  float64 // dot80211.DecodeCapture, per record
	clockNS   float64 // OffsetTracker.ToUniversal, per call
	bootNS    float64 // timesync: CollectWindow + Bootstrap
	unsynced  int
	unifyNS   float64 // unify stage less source reads, .jfs writes and the decode/clock estimates
	writeNS   float64 // hmerge: reorder + Writer
	stats     unify.Stats
	jfsBytes  int64
}

// The decode and clock loops run sampleRounds times over sampleRecords of
// the input's records.
const (
	sampleRecords = 100_000
	sampleRounds  = 10
)

// reorderSlackWindows mirrors hmerge.Unify: the unifier's emission order
// can invert by about one search window and the .jfs format is strictly
// sorted, so frames wait in a heap until the frontier is this many windows
// past them.
const reorderSlackWindows = 16

type reorderItem struct {
	j   *unify.JFrame
	seq int64
}

type reorderHeap []reorderItem

func (h reorderHeap) Len() int { return len(h) }
func (h reorderHeap) Less(i, k int) bool {
	if h[i].j.UnivUS != h[k].j.UnivUS {
		return h[i].j.UnivUS < h[k].j.UnivUS
	}
	return h[i].seq < h[k].seq
}
func (h reorderHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *reorderHeap) Push(x any)   { *h = append(*h, x.(reorderItem)) }
func (h *reorderHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = reorderItem{}
	*h = old[:len(old)-1]
	return it
}

// sinkInt keeps the sample loops' results alive.
var sinkInt int64

// traceFront runs the front-half stages over dir one at a time on this
// goroutine, writing the unified jframes to jfsPath.
func traceFront(tr *tracer, dir string, clockGroups [][]int32, jfsPath string) (*frontTrace, error) {
	ts, err := tracefile.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	ft := &frontTrace{}
	for _, radio := range ts.Radios() {
		st, err := os.Stat(tracefile.TracePath(dir, radio))
		if err != nil {
			return nil, err
		}
		ft.compBytes += st.Size()
	}

	// tracefile: read and inflate every radio's trace to EOF.
	id := tr.begin("tracefile.scan")
	for _, radio := range ts.Radios() {
		n, err := scanRadio(ts, radio)
		if err != nil {
			return nil, err
		}
		ft.records += n
	}
	tr.end(id)
	ft.scanNS = tr.self(id)

	// dot80211 and clock: tight loops over a sample of the input's own
	// records, since either call is cheaper than reading the clock twice.
	sample, err := sampleInput(ts)
	if err != nil {
		return nil, err
	}
	calls := float64(sampleRounds * len(sample))
	id = tr.begin("dot80211.decode")
	for round := 0; round < sampleRounds; round++ {
		for i := range sample {
			if f := sample[i].Frame; f != nil {
				fr, _, _ := dot80211.DecodeCapture(f)
				sinkInt += int64(fr.Seq)
			}
		}
	}
	tr.end(id)
	ft.decodeNS = tr.self(id) / calls
	tracker := clock.NewOffsetTracker(12_345)
	id = tr.begin("clock.translate")
	for round := 0; round < sampleRounds; round++ {
		for i := range sample {
			sinkInt += tracker.ToUniversal(sample[i].LocalUS)
		}
	}
	tr.end(id)
	ft.clockNS = tr.self(id) / calls

	// timesync: the bootstrap over each trace's first window.
	id = tr.begin("timesync.bootstrap")
	boot, err := bootstrap(ts, clockGroups)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ft.bootNS, ft.unsynced = tr.self(id), len(boot.Unsynced)

	// unify: the unifier over timed sources, its jframes written through
	// the reorder heap and hmerge.Writer as hmerge.Unify does.
	f, err := os.Create(jfsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 128<<10)
	var readTimer, writeTimer callTimer
	sources := make(map[int32]unify.Source, ts.Len())
	for _, radio := range ts.Radios() {
		sources[radio] = &radioSource{ts: ts, radio: radio, timer: &readTimer}
	}
	ucfg := unify.DefaultConfig()
	id = tr.begin("unify.stage")
	u := unify.New(ucfg, sources, boot)
	w, err := hmerge.NewWriter(bw)
	if err != nil {
		return nil, err
	}
	var rh reorderHeap
	flush := func(limitUS int64) error {
		for rh.Len() > 0 && rh[0].j.UnivUS <= limitUS {
			it := heap.Pop(&rh).(reorderItem)
			err := w.WriteJFrame(it.j)
			it.j.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	maxUS := int64(math.MinInt64)
	for seq := int64(0); ; seq++ {
		j, err := u.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("unify: %w", err)
		}
		t0 := time.Now()
		heap.Push(&rh, reorderItem{j: j, seq: seq})
		maxUS = max(maxUS, j.UnivUS)
		err = flush(maxUS - reorderSlackWindows*ucfg.SearchWindowUS)
		writeTimer.since(t0)
		if err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if err := flush(math.MaxInt64); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	writeTimer.since(t0)
	tr.fold("tracefile.next", &readTimer)
	tr.fold("hmerge.write", &writeTimer)
	tr.end(id)
	for radio, src := range sources {
		if err := src.(*radioSource).err; err != nil {
			return nil, fmt.Errorf("radio %d: %w", radio, err)
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	ft.stats = u.Stats
	ft.unifyNS = tr.self(id) - (ft.decodeNS+ft.clockNS)*float64(ft.records)
	ft.writeNS = float64(writeTimer.busy.Nanoseconds())
	st, err := os.Stat(jfsPath)
	if err != nil {
		return nil, err
	}
	ft.jfsBytes = st.Size()
	return ft, nil
}

// sampleInput copies the first records of every radio, sampleRecords in all.
func sampleInput(ts *tracefile.TraceSet) ([]tracefile.Record, error) {
	perRadio := sampleRecords/ts.Len() + 1
	var sample []tracefile.Record
	for _, radio := range ts.Radios() {
		rc, err := ts.Open(radio)
		if err != nil {
			return nil, err
		}
		r := tracefile.NewReader(rc)
		for n := 0; n < perRadio; n++ {
			rec, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rc.Close()
				return nil, err
			}
			rec.CloneFrame()
			sample = append(sample, rec)
		}
		rc.Close()
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("input has no records")
	}
	return sample, nil
}

// bootstrap opens every radio, collects its first window and solves for
// the offsets, as the head of core.RunFrom does.
func bootstrap(ts *tracefile.TraceSet, clockGroups [][]int32) (*timesync.Result, error) {
	readers := make(map[int32]*tracefile.Reader, ts.Len())
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	for _, radio := range ts.Radios() {
		rc, err := ts.Open(radio)
		if err != nil {
			return nil, err
		}
		closers = append(closers, rc)
		readers[radio] = tracefile.NewReader(rc)
	}
	window, err := timesync.CollectWindow(readers, timesync.DefaultWindowUS)
	if err != nil {
		return nil, err
	}
	return timesync.Bootstrap(window, clockGroups)
}

// backTrace is the traced back half over sorted jframe streams.
type backTrace struct {
	jframes     int64
	readNS      float64 // hmerge.Reader: every stream decoded to EOF
	mergeNS     float64 // hmerge.Merger over the streams to EOF: the same decode plus the k-way merge
	llcNS       float64 // reconstruction stage less stream reads and transport
	transportNS float64
	stats       llc.Stats
	flows       int
}

// traceBack runs the back-half stages one at a time; open returns fresh
// streams over the same files for each stage.
func traceBack(tr *tracer, open func() ([]*hmerge.Stream, error)) (*backTrace, error) {
	bt := &backTrace{}
	closeAll := func(streams []*hmerge.Stream) {
		for _, s := range streams {
			s.Close()
		}
	}

	// hmerge read: decode each stream to EOF.
	streams, err := open()
	if err != nil {
		return nil, err
	}
	id := tr.begin("hmerge.read")
	for _, s := range streams {
		for {
			j, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				closeAll(streams)
				return nil, err
			}
			j.Release()
			bt.jframes++
		}
	}
	tr.end(id)
	closeAll(streams)
	bt.readNS = tr.self(id)

	// hmerge merge: the k-way merge over the same streams.
	if streams, err = open(); err != nil {
		return nil, err
	}
	id = tr.begin("hmerge.merge")
	m := hmerge.NewMerger(streams, false)
	for {
		j, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			closeAll(streams)
			return nil, err
		}
		j.Release()
	}
	tr.end(id)
	closeAll(streams)
	bt.mergeNS = tr.self(id)

	// llc and transport: the reconstructor over the timed merged stream,
	// its exchanges handed to the transport analyzer as they complete
	// (completion order, not the pipeline's canonical close order, so the
	// transport counts are reported and not checked).
	if streams, err = open(); err != nil {
		return nil, err
	}
	defer closeAll(streams)
	m = hmerge.NewMerger(streams, false)
	rec := llc.NewReconstructor()
	ta := transport.NewAnalyzer()
	var readTimer, transportTimer callTimer
	feed := func(exs []*llc.Exchange) {
		if len(exs) == 0 {
			return
		}
		t0 := time.Now()
		for _, ex := range exs {
			ta.AddExchange(ex)
			ex.Release()
		}
		transportTimer.since(t0)
		transportTimer.calls += int64(len(exs)) - 1
	}
	id = tr.begin("llc.stage")
	for {
		t0 := time.Now()
		j, err := m.Next()
		readTimer.since(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rec.Process(j)
		j.Release()
		feed(rec.Take())
	}
	feed(rec.Flush())
	tr.fold("hmerge.next", &readTimer)
	tr.fold("transport.add", &transportTimer)
	tr.end(id)
	bt.llcNS = tr.self(id)
	bt.transportNS = float64(transportTimer.busy.Nanoseconds())
	bt.stats, bt.flows = rec.Stats, len(ta.Flows())
	return bt, nil
}

// pipeTrace is the whole serial pipeline run with every pass timed.
type pipeTrace struct {
	wallNS     float64
	passNS     []float64 // registry order
	finalizeNS float64
	out        runOutput
}

func (p *pipeTrace) analysisNS() float64 {
	ns := p.finalizeNS
	for _, v := range p.passNS {
		ns += v
	}
	return ns
}

// tracePipeline runs the Workers: 1 pipeline with the pass set behind
// timedPasses, then finalizes and renders.
func tracePipeline(tr *tracer, passes []analysis.Pass, run func(core.Config) (*core.Result, error)) (*pipeTrace, error) {
	tp := &timedPasses{passes: passes, busy: make([]time.Duration, len(passes))}
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	cfg.Passes = []core.Pass{tp}
	id := tr.begin("core.pipeline")
	res, err := run(cfg)
	if err != nil {
		tr.end(id)
		return nil, err
	}
	pt := &pipeTrace{}
	for i, p := range passes {
		c := callTimer{calls: 1, busy: tp.busy[i]}
		tr.fold("analysis."+p.Name(), &c)
		pt.passNS = append(pt.passNS, float64(tp.busy[i].Nanoseconds()))
	}
	fid := tr.begin("analysis.finalize")
	pt.out, err = render(passes, res)
	tr.end(fid)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	pt.finalizeNS = tr.self(fid)
	pt.wallNS = tr.spans[id].covered()
	return pt, nil
}

// share is one row of a traced run's breakdown.
type share struct {
	layer string
	ns    float64
}

func printShares(title string, wallNS float64, rows []share) {
	fmt.Printf("-- %s: traced serial wall %.1f ms --\n", title, wallNS/1e6)
	covered := 0.0
	for _, r := range rows {
		fmt.Printf("   %-12s %9.1f ms %6.1f%%\n", r.layer, r.ns/1e6, 100*r.ns/wallNS)
		covered += r.ns
	}
	fmt.Printf("   %-12s %9.1f ms %6.1f%%\n", "residual", (wallNS-covered)/1e6, 100*(wallNS-covered)/wallNS)
}

// traceSuite is the traced run: every layer measured on the input that
// exercises it (tracefile to unify on paper20, hmerge to analysis on
// campus2x5's streams, serve on the live replay), then a few iterations
// with tracing off for the ratios against untraced wall time. workload
// picks whose core.* rows are reported: a closed-loop workload's own CPU
// and allocations per iteration, jigd's CPU for live_paced.
func (h *harness) traceSuite(workload, traceOut string) *outcome {
	o := &outcome{values: map[string]float64{}, attempted: 1}
	if err := h.traceInto(o, workload, traceOut); err != nil {
		o.failed = 1
		o.problemf("traced suite: %v", err)
	}
	return o
}

func (h *harness) traceInto(o *outcome, workload, traceOut string) error {
	// Set-up, once: the traced suite does not report setup_s.
	paper, err := h.setupPaper(h.paperDaySec, filepath.Join(h.work, "trace-paper"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	campus, err := h.setupCampus(filepath.Join(h.work, "trace-campus"), true)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	live, err := h.setupLive(filepath.Join(h.work, "trace-live"))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	tr := &tracer{epoch: time.Now()}
	flatWallNS, flatLayersNS, err := h.traceFlat(tr, o, paper)
	if err != nil {
		return fmt.Errorf("trace_flat: %w", err)
	}
	if err := traceHier(tr, o, campus); err != nil {
		return fmt.Errorf("trace_hier: %w", err)
	}
	if err := writeJSON(traceOut, tr.spans); err != nil {
		return err
	}

	// Tracing off: the two paper workloads for the ratios, and the named
	// workload for its core.* rows.
	quick := *h
	quick.seconds, quick.minIters = 0, 3
	v := o.values
	loops := map[string]*outcome{}
	for _, name := range []string{"paper_serial", "paper_flat", workload} {
		if loops[name] != nil || name == "live_paced" {
			continue
		}
		w := h.closedWorkload(name, paper, campus)
		lo := &outcome{values: map[string]float64{}}
		closedLoopOutcome(lo, quick.closedLoop(w), w.records, nil)
		if lo.failed > 0 || len(lo.problems) > 0 {
			return fmt.Errorf("%s, tracing off: %v", name, lo.problems)
		}
		loops[name] = lo
	}
	coreRows := loops[workload]
	if coreRows == nil {
		coreRows = loops["paper_serial"]
	}
	for _, name := range []string{"core.cpu_s_per_iter", "core.allocs_per_record", "core.alloc_bytes_per_record"} {
		v[name] = coreRows.values[name]
	}
	serialNS := loops["paper_serial"].values["window_lag_ms_p50"] * 1e6
	v["core.parallel_speedup"] = loops["paper_flat"].values["records_per_s"] / loops["paper_serial"].values["records_per_s"]
	v["trace.overhead_ratio"] = flatWallNS / serialNS
	v["trace.reconcile_ratio"] = flatLayersNS / serialNS
	if r := v["trace.reconcile_ratio"]; r < 0.7 || r > 1.3 {
		fmt.Printf("NOTE: trace.reconcile_ratio %.2f is outside 0.7-1.3: the layer spans do not add up to the untraced run\n", r)
	}

	// serve and gen: the live replay, observed from outside.
	lo := &outcome{values: map[string]float64{}}
	if err := h.measureLive(lo, live); err != nil {
		return fmt.Errorf("live replay: %w", err)
	}
	o.problems = append(o.problems, lo.problems...)
	for name, val := range lo.values {
		if strings.HasPrefix(name, "serve.") || strings.HasPrefix(name, "gen.") {
			v[name] = val
		}
	}
	if workload == "live_paced" {
		v["core.cpu_s_per_iter"] = v["serve.cpu_s"]
		v["core.allocs_per_record"], v["core.alloc_bytes_per_record"] = 0, 0
	}
	return nil
}

// traceFlat is trace_flat: the front half, the back half over the jframes
// it wrote, and the whole Workers: 1 pipeline, over paper20. It returns
// the traced pipeline's wall time and the sum of the layers' self times.
func (h *harness) traceFlat(tr *tracer, o *outcome, paper *paperInput) (wallNS, layersNS float64, err error) {
	tr.workload = "trace_flat"
	jfs := filepath.Join(h.work, "trace-flat.jfs")
	ft, err := traceFront(tr, paper.dir, paper.meta.ClockGroups, jfs)
	if err != nil {
		return 0, 0, err
	}
	if ft.stats != paper.ref.unify {
		o.problemf("trace_flat: unify stage counted %+v, the reference %+v", ft.stats, paper.ref.unify)
	}
	back, err := traceBack(tr, func() ([]*hmerge.Stream, error) {
		f, err := os.Open(jfs)
		if err != nil {
			return nil, err
		}
		return []*hmerge.Stream{hmerge.NewStream(nil, bufio.NewReaderSize(f, 128<<10))}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	passes, err := newPasses(paper.meta)
	if err != nil {
		return 0, 0, err
	}
	pipe, err := tracePipeline(tr, passes, func(cfg core.Config) (*core.Result, error) {
		ts, err := tracefile.OpenDir(paper.dir)
		if err != nil {
			return nil, err
		}
		return core.RunFrom(ts, paper.meta.ClockGroups, cfg, nil)
	})
	if err != nil {
		return 0, 0, err
	}
	if pipe.out.digest != paper.ref.digest {
		o.problemf("trace_flat: traced pipeline digest %.12s differs from the reference %.12s", pipe.out.digest, paper.ref.digest)
	}
	recs, jframes := float64(ft.records), float64(ft.stats.JFrames)
	rows := []share{
		{"tracefile", ft.scanNS},
		{"timesync", ft.bootNS},
		{"dot80211", ft.decodeNS * recs},
		{"clock", ft.clockNS * recs},
		{"unify", ft.unifyNS},
		{"llc", back.llcNS},
		{"transport", back.transportNS},
		{"analysis", pipe.analysisNS()},
	}
	printShares("trace_flat (paper20)", pipe.wallNS, rows)
	for _, r := range rows {
		layersNS += r.ns
	}
	v := o.values
	v["tracefile.read_ns_per_record"] = ft.scanNS / recs
	v["tracefile.records"] = recs
	v["tracefile.comp_mb"] = float64(ft.compBytes) / (1 << 20)
	v["tracefile.share"] = ft.scanNS / pipe.wallNS
	v["dot80211.decode_ns_per_record"] = ft.decodeNS
	v["clock.translate_ns_per_call"] = ft.clockNS
	v["timesync.bootstrap_ms"] = ft.bootNS / 1e6
	v["timesync.unsynced_radios"] = float64(ft.unsynced)
	v["unify.self_ns_per_record"] = ft.unifyNS / recs
	v["unify.jframes"] = jframes
	v["unify.obs_per_jframe"] = float64(ft.stats.Unified) / jframes
	v["unify.resyncs"] = float64(ft.stats.Resyncs)
	v["unify.share"] = ft.unifyNS / pipe.wallNS
	v["hmerge.write_ns_per_jframe"] = ft.writeNS / jframes
	v["hmerge.jfs_bytes_per_jframe"] = float64(ft.jfsBytes) / jframes
	v["core.residual_share"] = 1 - layersNS/pipe.wallNS
	return pipe.wallNS, layersNS, nil
}

// traceHier is trace_hier: the back half and the whole Workers: 1
// hierarchical pipeline over campus2x5's level-1 streams.
func traceHier(tr *tracer, o *outcome, campus *campusInput) error {
	tr.workload = "trace_hier"
	back, err := traceBack(tr, func() ([]*hmerge.Stream, error) { return hmerge.OpenStreams(campus.streams) })
	if err != nil {
		return err
	}
	if back.stats != campus.hierRef.llc {
		o.problemf("trace_hier: llc stage counted %+v, the reference %+v", back.stats, campus.hierRef.llc)
	}
	passes, err := newPasses(campus.meta)
	if err != nil {
		return err
	}
	pipe, err := tracePipeline(tr, passes, func(cfg core.Config) (*core.Result, error) {
		return core.RunHierarchicalPaths(campus.streams, cfg, nil)
	})
	if err != nil {
		return err
	}
	if pipe.out.digest != campus.hierRef.digest {
		o.problemf("trace_hier: traced pipeline digest %.12s differs from the reference %.12s", pipe.out.digest, campus.hierRef.digest)
	}
	printShares("trace_hier (campus2x5 streams)", pipe.wallNS, []share{
		{"tracefile", 0},
		{"unify", 0},
		{"hmerge", back.mergeNS},
		{"llc", back.llcNS},
		{"transport", back.transportNS},
		{"analysis", pipe.analysisNS()},
	})
	v, jframes, exchanges := o.values, float64(back.jframes), float64(back.stats.Exchanges)
	v["hmerge.read_ns_per_jframe"] = back.readNS / jframes
	v["hmerge.merge_ns_per_jframe"] = back.mergeNS / jframes
	v["llc.self_ns_per_jframe"] = back.llcNS / jframes
	v["llc.exchanges"] = exchanges
	v["llc.inferred_exchange_ratio"] = float64(back.stats.InferredExchanges) / exchanges
	v["transport.add_ns_per_exchange"] = back.transportNS / exchanges
	v["transport.flows"] = float64(back.flows)
	for i, p := range passes {
		v["analysis."+p.Name()+"_ns_per_jframe"] = pipe.passNS[i] / jframes
	}
	v["analysis.finalize_ms"] = pipe.finalizeNS / 1e6
	v["analysis.share"] = pipe.analysisNS() / pipe.wallNS
	return nil
}
