package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// The live workload's operating point.
const (
	liveWindow    = time.Second // jigd -window, trace time
	liveSegmentUS = 1_000_000   // capture rotation period, trace time
	summaryPoll   = 10 * time.Millisecond
	metricsEvery  = 5               // /metrics every 5th poll: 50 ms
	lagLimit      = 2 * time.Second // a window must close this soon after it was due
	drainLimit    = 5 * time.Second // and the whole capture this soon after the generator ends
	jigdExitLimit = 10 * time.Second
	livePace      = 4 // trace seconds replayed per wall second
)

// liveInput is a paper input livePace x seconds long plus the daemon
// built from source.
type liveInput struct {
	*paperInput
	jigd string
}

func (h *harness) setupLive(dir string) (*liveInput, error) {
	in, err := h.setupPaper(livePace*h.seconds, filepath.Join(dir, "traces"))
	if err != nil {
		return nil, err
	}
	if err := checkNoEmptyRadio(in); err != nil {
		return nil, err
	}
	jigd, err := h.buildJigd(dir)
	if err != nil {
		return nil, err
	}
	return &liveInput{paperInput: in, jigd: jigd}, nil
}

// metricsBody is the fields of jigd's /metrics the harness reads; of
// /summary it reads serve.SummaryStats.
type metricsBody struct {
	serve.Counters
	HeapAllocB uint64 `json:"heap_alloc_bytes"`
}

// metricsSample is one /metrics reading with the generator's position at
// that moment.
type metricsSample struct {
	genRelUS       int64
	frontierUS     int64
	watermarkLagUS int64
}

// livePoller is the harness's observer: it polls jigd until stopped.
type livePoller struct {
	base   string
	client *http.Client
	events int64 // records the reference run consumed
	genRel *atomic.Int64

	// Written by the polling goroutine, read after wait returns.
	closedAt    []time.Time // closedAt[n-1]: when window n was first seen closed
	firstEndUS  int64       // trace time at which window 1 ended
	samples     []metricsSample
	peakHeapB   uint64
	drainedAt   time.Time
	lastSummary serve.SummaryStats

	drained chan struct{} // closed once /summary shows every record consumed
	quit    chan struct{}
	done    chan struct{}
}

func (p *livePoller) get(path string, v any) bool {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return false // jigd listens only once every radio has a sealed segment
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(v) == nil
}

func (p *livePoller) run() {
	defer close(p.done)
	tick := time.NewTicker(summaryPoll)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		var s serve.SummaryStats
		if !p.get("/summary", &s) {
			continue
		}
		now := time.Now()
		p.lastSummary = s
		if len(p.closedAt) == 0 && s.WindowsClosed > 0 {
			p.firstEndUS = s.LastWindowEnd - (s.WindowsClosed-1)*s.WindowUS
		}
		for int64(len(p.closedAt)) < s.WindowsClosed {
			p.closedAt = append(p.closedAt, now)
		}
		if p.drainedAt.IsZero() && s.Unify.Events == p.events {
			p.drainedAt = now
			close(p.drained)
		}
		if n%metricsEvery == 0 {
			var m metricsBody
			if p.get("/metrics", &m) {
				p.peakHeapB = max(p.peakHeapB, m.HeapAllocB)
				p.samples = append(p.samples, metricsSample{
					genRelUS: p.genRel.Load(), frontierUS: m.FrontierUS, watermarkLagUS: m.WatermarkLagUS,
				})
			}
		}
	}
}

// stop ends the polling goroutine and waits for it.
func (p *livePoller) stop() {
	close(p.quit)
	<-p.done
}

// freeAddr reserves a loopback port for jigd by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// processPeakRSSKB is a running process's peak resident set: VmHWM in
// /proc/<pid>/status, or 0 where that cannot be read. The Maxrss wait4
// reports for a child is no substitute: it starts from the parent's
// resident set at the fork, which here exceeds the daemon's own.
func processPeakRSSKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscan(v, &kb); err == nil {
				return kb
			}
		}
	}
	return 0
}

// runLive sets the live workload up and measures it once: the generator
// replays its input on an absolute schedule while jigd tails the capture and
// the poller watches windows close.
func (h *harness) runLive(o *outcome) {
	in, secs, err := repeatSetup(h, "live_paced", h.setupLive)
	if err != nil {
		o.attempted, o.failed = 1, 1
		o.problemf("live_paced: %v", err)
		return
	}
	o.values["setup_s"] = median(secs)
	if err := h.measureLive(o, in); err != nil {
		o.attempted, o.failed = max(1, o.attempted), max(1, o.attempted)
		o.problemf("live_paced: %v", err)
	}
}

func (h *harness) measureLive(o *outcome, in *liveInput) error {
	capDir := filepath.Join(h.work, "capture")
	if err := os.RemoveAll(capDir); err != nil {
		return err
	}
	if err := os.MkdirAll(capDir, 0o755); err != nil {
		return err
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	logFile, err := os.Create(filepath.Join(h.work, "jigd.log"))
	if err != nil {
		return err
	}
	defer logFile.Close()
	jigd := exec.Command(in.jigd, "-dir", capDir, "-http", addr, "-window", liveWindow.String())
	jigd.Stderr = logFile
	if err := jigd.Start(); err != nil {
		return fmt.Errorf("starting jigd: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- jigd.Wait() }()
	// stopJigd asks the daemon to drain and exit, and kills it if it will not.
	stopJigd := func() error {
		_ = jigd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case err := <-exited:
			return err
		case <-time.After(jigdExitLimit):
			_ = jigd.Process.Kill()
			<-exited
			return fmt.Errorf("jigd did not exit within %v of SIGTERM", jigdExitLimit)
		}
	}

	var genRel atomic.Int64
	poller := &livePoller{
		base: "http://" + addr, client: &http.Client{Timeout: time.Second},
		events: in.ref.unify.Events, genRel: &genRel,
		drained: make(chan struct{}), quit: make(chan struct{}), done: make(chan struct{}),
	}
	go poller.run()

	// The generator: every record is due at t0 + relUS/pace whatever the
	// daemon does; it sleeps when ahead and records how late it ran.
	var t0 time.Time
	var lateMax time.Duration
	err = scenario.Replay(scenario.ReplayConfig{
		SrcDir: in.dir, DstDir: capDir, SegmentUS: liveSegmentUS, MarkDone: true,
		Pace: func(relUS int64) {
			if t0.IsZero() {
				t0 = time.Now()
			}
			genRel.Store(relUS)
			due := time.Duration(float64(relUS) / livePace * float64(time.Microsecond))
			if ahead := due - time.Since(t0); ahead > 0 {
				time.Sleep(ahead)
			} else {
				lateMax = max(lateMax, -ahead)
			}
		},
	})
	genEnd := time.Now()
	if err != nil {
		poller.stop()
		_ = stopJigd()
		return fmt.Errorf("generator: %w", err)
	}
	spanUS := genRel.Load()

	select {
	case <-poller.drained:
	case <-time.After(drainLimit):
	case err := <-exited:
		poller.stop()
		return fmt.Errorf("jigd exited early: %v (see %s)", err, logFile.Name())
	}
	// The trailing window closes (Monitor.Flush) right after the final
	// stats are published; give it a moment before the last reading.
	time.Sleep(100 * time.Millisecond)
	poller.stop()
	final := poller.lastSummary
	peakRSSKB := processPeakRSSKB(jigd.Process.Pid)
	waitErr := stopJigd()
	ru, _ := jigd.ProcessState.SysUsage().(*syscall.Rusage)
	if waitErr != nil {
		return fmt.Errorf("jigd: %w (see %s)", waitErr, logFile.Name())
	}
	if ru == nil {
		return fmt.Errorf("no resource usage for jigd")
	}

	// Output checks: the daemon consumed every record and unified them
	// into the same jframes as the batch reference.
	if poller.drainedAt.IsZero() {
		o.problemf("jigd had consumed %d of %d records %v after the generator ended", final.Unify.Events, in.ref.unify.Events, drainLimit)
	}
	if final.Unify.JFrames != in.ref.unify.JFrames {
		o.problemf("jigd unified %d jframes, the reference %d", final.Unify.JFrames, in.ref.unify.JFrames)
	}

	// Window n ends n windows after the first jframe, so its last record
	// was due n*window/livePace after t0. Windows ending at least the slack
	// before the trace's end are expected to close while the generator runs.
	windowUS := liveWindow.Microseconds()
	expected := int((spanUS - serve.DefaultSlackUS) / windowUS)
	o.attempted = max(1, expected)
	var lagMS []float64
	for n := 1; n <= expected; n++ {
		due := t0.Add(time.Duration(float64(int64(n)*windowUS) / livePace * float64(time.Microsecond)))
		if n > len(poller.closedAt) {
			o.failed++
			continue
		}
		lag := poller.closedAt[n-1].Sub(due)
		if lag > lagLimit {
			o.failed++
		}
		lagMS = append(lagMS, float64(lag.Nanoseconds())/1e6)
	}
	if expected < 1 || len(lagMS) == 0 {
		return fmt.Errorf("no expected window closed (trace span %d us)", spanUS)
	}
	drainedAt := poller.drainedAt
	if drainedAt.IsZero() {
		drainedAt = genEnd.Add(drainLimit)
	}
	o.values["records_per_s"] = float64(in.records) / drainedAt.Sub(t0).Seconds()
	o.values["peak_heap_mb"] = float64(poller.peakHeapB) / (1 << 20)
	o.values["peak_rss_mb"] = float64(peakRSSKB) / 1024
	o.values["window_lag_ms_p50"] = median(lagMS)
	o.values["window_lag_ms_p80"] = percentile(lagMS, 0.8)

	// Rows for the traced suite. Lags between positions in the trace are
	// in trace time; window 1's end minus the window places the first
	// jframe, which the generator emitted at relUS = 0.
	baseUS := poller.firstEndUS - windowUS
	var frontierLagMS, watermarkLagMS []float64
	for _, s := range poller.samples {
		if s.frontierUS > 0 {
			frontierLagMS = append(frontierLagMS, float64(s.genRelUS-(s.frontierUS-baseUS))/1e3)
			watermarkLagMS = append(watermarkLagMS, float64(s.watermarkLagUS)/1e3)
		}
	}
	o.values["serve.frontier_lag_ms_p50"] = median(frontierLagMS)
	o.values["serve.watermark_lag_ms_p50"] = median(watermarkLagMS)
	o.values["serve.first_report_s"] = poller.closedAt[0].Sub(t0).Seconds()
	o.values["serve.windows_closed"] = float64(final.WindowsClosed)
	o.values["serve.cpu_s"] = cpuSeconds(ru)
	o.values["gen.late_ms_max"] = float64(lateMax.Nanoseconds()) / 1e6
	o.values["gen.offered_records_per_s"] = float64(in.records) / genEnd.Sub(t0).Seconds()
	return nil
}
