// Command jigd is the always-on monitoring daemon: it tails a growing
// capture directory (rotating per-radio segments, as written by a live
// capture or jigsim -replay), feeds the complete blocks of each radio's
// newest segment through the Jigsaw pipeline as they are written, and serves
// the streaming analyses over HTTP while the capture is still growing.
//
//	jigd -dir capture/ -http localhost:8970 -window 5s
//
// Endpoints: /healthz (readiness), /summary (cumulative pipeline stats),
// /reports/<pass> (latest closed-window report, jiganalyze -json rows),
// /metrics (frames/sec, watermark and complete lag, late events, heap, tail
// counters). A window closes once the pipeline reports its streams complete
// past the window's end (core.Result.CompleteUS, every serve.ProgressEveryUS
// of trace time): there is no slack to set. Analysis state is bounded: every
// window gets a fresh set of passes, finalized and dropped when it closes,
// and the passes hold all of it — the transport analyzers behind summary's
// flow counts and tcploss too — so heap stays flat however long the capture
// runs, and each window reports its own events only. Radios the bootstrap
// could not synchronize are logged once and listed in /summary's
// unsynced_radios.
//
// SIGINT/SIGTERM drains the pipeline, closes the trailing window and exits
// cleanly; when the capture marks itself done, jigd finishes the trace and
// keeps serving the final reports until signalled.
//
//jiglint:allow wallclock (daemon edge: polling cadence and shutdown timeouts are wall-clock by nature)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/tracefile"
)

func main() {
	log.SetFlags(log.Ltime)
	log.SetPrefix("jigd: ")
	var (
		dir     = flag.String("dir", "", "capture directory to tail (required)")
		addr    = flag.String("http", "localhost:8970", "HTTP listen address")
		window  = flag.Duration("window", 5*time.Second, "analysis window length in trace time")
		poll    = flag.Duration("poll", 10*time.Millisecond, "interval at which a reader waiting for data looks at its segment file again")
		passesF = flag.String("passes", "all", "which analyses to serve (comma-separated, or 'all')")
		workers = flag.Int("workers", 1, "pipeline workers, passed to core.Config.Workers (1 = inline, otherwise the three-stage pipeline; 0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *dir == "" {
		log.Fatal("-dir is required")
	}
	if *window <= 0 {
		log.Fatalf("invalid -window %v", *window)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *dir, *addr, *window, *poll, *passesF, *workers); err != nil {
		log.Fatal(err)
	}
}

// waitMeta polls until the capture's meta.json appears (the writer copies
// it in before the first record).
func waitMeta(ctx context.Context, dir string, poll time.Duration) (scenario.Meta, error) {
	for {
		meta, err := scenario.ReadMeta(dir)
		if err == nil {
			return meta, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return scenario.Meta{}, err
		}
		select {
		case <-ctx.Done():
			return scenario.Meta{}, fmt.Errorf("interrupted waiting for %s in %s", scenario.MetaFileName, dir)
		case <-time.After(poll):
		}
	}
}

// waitRoster polls until every roster radio has started its first segment,
// so the trace set fixed by TraceSet() covers the deployment. A roster radio
// that never writes keeps it waiting; the log says which every 5 s.
func waitRoster(ctx context.Context, dir string, roster []int32, poll time.Duration) error {
	nextLog := time.Now().Add(5 * time.Second)
	missing := slices.Clone(roster)
	for {
		missing = slices.DeleteFunc(missing, func(r int32) bool {
			_, err := os.Stat(tracefile.SegmentTracePath(dir, r, 0))
			return err == nil
		})
		if len(missing) == 0 {
			return nil
		}
		status := fmt.Sprintf("%d/%d radios ready, first missing %v", len(roster)-len(missing), len(roster), missing[:min(8, len(missing))])
		if time.Now().After(nextLog) {
			nextLog = nextLog.Add(5 * time.Second)
			log.Printf("waiting for first segments: %s", status)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted waiting for first segments (%s)", status)
		case <-time.After(poll):
		}
	}
}

func run(ctx context.Context, dir, addr string, window, poll time.Duration, selector string, workers int) error {
	meta, err := waitMeta(ctx, dir, poll)
	if err != nil {
		return err
	}
	var roster []int32
	for _, g := range meta.ClockGroups {
		roster = append(roster, g...)
	}
	if len(roster) == 0 {
		return fmt.Errorf("%s in %s lists no radios", scenario.MetaFileName, dir)
	}
	log.Printf("capture %s: %d radios, %d APs", dir, len(roster), len(meta.APs))

	if err := waitRoster(ctx, dir, roster, poll); err != nil {
		return err
	}
	tail := tracefile.NewTailSet(dir)

	// Passes over the live stream: same registry and parameters as
	// jiganalyze directory mode (no simulator ground truth available).
	daySec := meta.DaySec
	if daySec == 0 {
		daySec = 86_400
	}
	apSet := scenario.APSet(meta.APs)
	params := analysis.PassParams{
		SlotUS:     int64(daySec * 1e6 / 24),
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
	}
	passes, err := analysis.Select(selector, params)
	if err != nil {
		return err
	}
	var mon *serve.Monitor
	warned := false
	mon, err = serve.NewMonitor(serve.MonitorConfig{
		WindowUS: window.Microseconds(),
		Passes:   passes,
		OnWindow: func(endUS int64) {
			if u := mon.Summary().UnsyncedRadios; len(u) > 0 && !warned {
				warned = true
				log.Printf("warning: radios %v could not be synchronized; their records are in no report", u)
			}
			log.Printf("window closed at %s trace time", time.Duration(endUS)*time.Microsecond)
		},
	})
	if err != nil {
		return err
	}

	handler := serve.NewServer(mon, serve.Info{Dir: dir, Radios: roster})
	handler.Tail = tail.Counters
	srv := &http.Server{Addr: addr, Handler: handler}
	httpErr := make(chan error, 1)
	go func() {
		log.Printf("serving on http://%s", addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			httpErr <- err
		}
		close(httpErr)
	}()

	// Scan pump: send the reader waiting for data back to its file every
	// tick until the capture is done or we are told to stop; either way
	// Finish unblocks the tail readers so the pipeline drains.
	go func() {
		defer tail.Finish()
		t := time.NewTicker(poll)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if done, err := tail.Scan(); done || err != nil {
					log.Printf("tail ends: capture marked done %v, scan error %v", done, err)
					return
				}
			}
		}
	}()

	ccfg := core.DefaultConfig()
	ccfg.Workers = workers
	ccfg.SnapshotEveryUS = serve.ProgressEveryUS
	ccfg.Passes = []core.Pass{mon}
	res, err := core.RunFrom(tail.TraceSet(), meta.ClockGroups, ccfg, nil)
	if err != nil {
		_ = srv.Close() // tearing down on a fatal pipeline error
		return fmt.Errorf("pipeline: %w", err)
	}
	mon.Flush()
	log.Printf("pipeline drained: %d jframes, %d windows served, %d late events", res.UnifyStats.JFrames, mon.Summary().WindowsClosed, mon.Metrics().LateEvents)

	// Natural end of capture: keep serving the final reports until
	// signalled. On a signal the context is already done and we shut down
	// immediately.
	select {
	case <-ctx.Done():
	case err := <-httpErr:
		if err != nil {
			return fmt.Errorf("http: %w", err)
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err, ok := <-httpErr; ok && err != nil {
		return fmt.Errorf("http: %w", err)
	}
	log.Printf("clean exit")
	return nil
}
