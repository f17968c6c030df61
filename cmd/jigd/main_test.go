//jiglint:allow wallclock (daemon edge test: polls a live HTTP server)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// lockedBuffer collects the daemon's log lines; the daemon writes from
// several goroutines while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// spill runs a small scenario and returns its output with the trace
// directory it spilled to (no meta.json yet).
func spill(t *testing.T) (string, *scenario.Output) {
	t.Helper()
	src := t.TempDir()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 3, 3, 4
	cfg.Day = 8 * sim.Second
	cfg.SpillDir = src
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return src, out
}

// daemon is one in-process run of jigd with 2 s windows.
type daemon struct {
	addr   string
	logs   *lockedBuffer
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{addr: ln.Addr().String(), logs: &lockedBuffer{}, done: make(chan error, 1)}
	ln.Close()
	log.SetOutput(d.logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	t.Cleanup(cancel)
	go func() {
		d.done <- run(ctx, dir, d.addr, 2*time.Second, 10*time.Millisecond, "all", 1)
	}()
	return d
}

// summary fetches /summary; ok is false while the daemon is not serving yet.
func (d *daemon) summary() (sum serve.SummaryStats, ok bool) {
	resp, err := http.Get("http://" + d.addr + "/summary")
	if err != nil {
		return sum, false
	}
	defer resp.Body.Close()
	return sum, json.NewDecoder(resp.Body).Decode(&sum) == nil
}

// poll retries cond every 10 ms until it holds, failing the test if the
// daemon exits or 30 s pass first.
func (d *daemon) poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		select {
		case err := <-d.done:
			t.Fatalf("run returned early: %v\n%s", err, d.logs.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out\n%s", what, d.logs.String())
		}
	}
}

// drained waits for the pipeline to finish the capture and returns the
// final /summary.
func (d *daemon) drained(t *testing.T) serve.SummaryStats {
	t.Helper()
	d.poll(t, "pipeline drain", func() bool { return strings.Contains(d.logs.String(), "pipeline drained") })
	sum, ok := d.summary()
	if !ok {
		t.Fatalf("/summary unreadable after the drain\n%s", d.logs.String())
	}
	return sum
}

// stop ends the daemon and checks it exited cleanly.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cancel()
	if err := <-d.done; err != nil {
		t.Fatalf("run: %v\n%s", err, d.logs.String())
	}
	if got := d.logs.String(); !strings.Contains(got, "clean exit") {
		t.Errorf("no clean exit:\n%s", got)
	}
}

// TestRunServesAndWarnsUnsynced drives the daemon in-process over a
// finished capture that includes one radio on a channel nobody else hears:
// it must serve the windows, list the radio in /summary's unsynced_radios,
// log it exactly once, and exit cleanly when its context ends.
func TestRunServesAndWarnsUnsynced(t *testing.T) {
	src, out := spill(t)
	capDir := t.TempDir()
	const lone = 9000
	frame := dot80211.NewData(dot80211.MAC{2, 1}, dot80211.MAC{2, 2}, dot80211.MAC{2, 3}, 1, []byte("x"))
	f, err := os.Create(tracefile.TracePath(src, lone))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteAll(f, []tracefile.Record{{
		LocalUS: 1_000_000, RadioID: lone, Channel: 14,
		Rate: uint16(dot80211.Rate11Mbps), Flags: tracefile.FlagFCSOK, Frame: frame.Encode(),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	meta := scenario.MetaFromOutput(out)
	meta.ClockGroups = append(meta.ClockGroups, []int32{lone})
	if err := scenario.WriteMeta(src, meta); err != nil {
		t.Fatal(err)
	}
	if err := scenario.Replay(scenario.ReplayConfig{SrcDir: src, DstDir: capDir, SegmentUS: 1_000_000, MarkDone: true}); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, capDir)
	sum := d.drained(t)
	if sum.WindowsClosed < 2 {
		t.Errorf("/summary windows_closed = %d, want >= 2", sum.WindowsClosed)
	}
	if len(sum.UnsyncedRadios) != 1 || sum.UnsyncedRadios[0] != lone {
		t.Errorf("/summary unsynced_radios = %v, want [%d]", sum.UnsyncedRadios, lone)
	}
	d.stop(t)
	if n := strings.Count(d.logs.String(), "radios [9000] could not be synchronized"); n != 1 {
		t.Errorf("unsynced-radio warning logged %d times, want once:\n%s", n, d.logs.String())
	}
}

// TestRunTailsGrowingCapture starts the daemon on an empty directory and
// replays a capture into it whose segments outlast it, so no seal marker
// exists until the replay ends. The replay holds at 6 s until the daemon has
// closed two 2 s windows: everything it reports by then it read from open
// segments. Drained, it must agree with a run over the finished capture.
func TestRunTailsGrowingCapture(t *testing.T) {
	src, out := spill(t)
	if err := scenario.WriteMeta(src, scenario.MetaFromOutput(out)); err != nil {
		t.Fatal(err)
	}
	capDir := t.TempDir()
	d := startDaemon(t, capDir)
	held := false
	err := scenario.Replay(scenario.ReplayConfig{
		SrcDir: src, DstDir: capDir, SegmentUS: 60_000_000, MarkDone: true,
		Pace: func(relUS int64) {
			if held || relUS < 6_000_000 {
				return
			}
			held = true
			d.poll(t, "two windows from open segments", func() bool {
				sum, ok := d.summary()
				return ok && sum.WindowsClosed >= 2
			})
			if sealed, _ := filepath.Glob(filepath.Join(capDir, "*.sealed")); len(sealed) != 0 {
				t.Errorf("seal markers %v exist mid-replay; the windows did not have to come from open segments", sealed)
			}
			var met struct {
				serve.Counters
				tracefile.TailCounters
			}
			resp, err := http.Get("http://" + d.addr + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
				t.Fatal(err)
			}
			if met.FramesTotal == 0 || met.OpenBlocks == 0 || met.SealedBlocks != 0 || met.BlockedTicks == 0 {
				t.Errorf("/metrics mid-replay = %+v, want frames, open blocks and blocked ticks, no sealed blocks", met)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !held {
		t.Fatal("the capture never reached 6 s")
	}
	live := d.drained(t)
	d.stop(t)

	ref := startDaemon(t, capDir)
	want := ref.drained(t)
	ref.stop(t)
	if live.Unify.Events != want.Unify.Events || live.Unify.JFrames != want.Unify.JFrames || live.WindowsClosed != want.WindowsClosed {
		t.Errorf("tailing the growing capture: %d events, %d jframes, %d windows; over the finished one: %d, %d, %d",
			live.Unify.Events, live.Unify.JFrames, live.WindowsClosed, want.Unify.Events, want.Unify.JFrames, want.WindowsClosed)
	}
	if want.Unify.JFrames == 0 || want.WindowsClosed < 3 {
		t.Errorf("reference run closed %d windows over %d jframes", want.WindowsClosed, want.Unify.JFrames)
	}
}
