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

// TestRunServesAndWarnsUnsynced drives the daemon in-process over a
// finished capture that includes one radio on a channel nobody else hears:
// it must serve the windows, list the radio in /summary's unsynced_radios,
// log it exactly once, and exit cleanly when its context ends.
func TestRunServesAndWarnsUnsynced(t *testing.T) {
	src, capDir := t.TempDir(), t.TempDir()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 3, 3, 4
	cfg.Day = 8 * sim.Second
	cfg.SpillDir = src
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lone = 9000
	frame := dot80211.NewData(dot80211.MAC{2, 1}, dot80211.MAC{2, 2}, dot80211.MAC{2, 3}, 1, []byte("x"))
	f, err := os.Create(tracefile.TracePath(src, lone))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.WriteAll(f, []tracefile.Record{{
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

	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var logs lockedBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, capDir, addr, 2*time.Second, time.Second, 10*time.Millisecond, "all", 1)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(logs.String(), "pipeline drained") {
		select {
		case err := <-done:
			t.Fatalf("run returned early: %v\n%s", err, logs.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline did not drain:\n%s", logs.String())
		}
	}
	resp, err := http.Get("http://" + addr + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum serve.SummaryStats
	err = json.NewDecoder(resp.Body).Decode(&sum)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum.WindowsClosed < 2 {
		t.Errorf("/summary windows_closed = %d, want >= 2", sum.WindowsClosed)
	}
	if len(sum.UnsyncedRadios) != 1 || sum.UnsyncedRadios[0] != lone {
		t.Errorf("/summary unsynced_radios = %v, want [%d]", sum.UnsyncedRadios, lone)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	got := logs.String()
	if n := strings.Count(got, "radios [9000] could not be synchronized"); n != 1 {
		t.Errorf("unsynced-radio warning logged %d times, want once:\n%s", n, got)
	}
	if !strings.Contains(got, "clean exit") {
		t.Errorf("no clean exit:\n%s", got)
	}
}
