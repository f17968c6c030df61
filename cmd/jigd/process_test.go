//jiglint:allow wallclock (daemon edge test: paces a replay and polls a live daemon process)
package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
)

// daemonEnv, set in a test binary's environment, makes it run jigd's main
// with its command line instead of the tests: TestDaemonProcess starts the
// daemon as a real process that way, without building a second binary.
const daemonEnv = "JIGD_TEST_RUN_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// getJSON fetches one endpoint and decodes its body into v; it reports
// whether the daemon answered 200 with valid JSON.
func getJSON(addr, path string, v any) bool {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(v) == nil
}

// TestDaemonProcess is the end-to-end drive of the jigd binary: a capture
// replayed at 8× real time into the directory a jigd process tails, its
// HTTP endpoints while the capture grows, and its exit on SIGTERM. It
// checks what an operator would: /healthz answers, /summary has closed a
// window, /reports/summary has rows, /metrics counts frames_total, and a
// SIGTERM ends the process with status 0 and "clean exit" as its last word.
func TestDaemonProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a capture in real time into a daemon process")
	}
	src, out := spill(t)
	if err := scenario.WriteMeta(src, scenario.MetaFromOutput(out)); err != nil {
		t.Fatal(err)
	}
	capDir := t.TempDir()
	ln, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	logs := &lockedBuffer{}
	cmd := exec.Command(os.Args[0], "-dir", capDir, "-http", addr, "-window", "2s")
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stdout, cmd.Stderr = logs, logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	exited := make(chan struct{})
	go func() {
		exitErr = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill() // the test failed before its SIGTERM
			<-exited
		}
	})

	// The paced replay keeps the capture growing while the daemon tails it,
	// so the daemon works from open segments, not a finished capture.
	replayed := make(chan error, 1)
	go func() {
		start := time.Now()
		replayed <- scenario.Replay(scenario.ReplayConfig{
			SrcDir: src, DstDir: capDir, SegmentUS: 1_000_000, MarkDone: true,
			Pace: func(relUS int64) {
				if ahead := time.Duration(relUS/8)*time.Microsecond - time.Since(start); ahead > 0 {
					time.Sleep(ahead)
				}
			},
		})
	}()

	poll := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for !cond() {
			select {
			case <-exited:
				t.Fatalf("%s: daemon exited early (%v)\n%s", what, exitErr, logs.String())
			case <-time.After(20 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: timed out\n%s", what, logs.String())
			}
		}
	}
	var health struct{ Status string }
	poll("/healthz", func() bool { return getJSON(addr, "/healthz", &health) && health.Status == "ok" })
	var summary struct {
		WindowsClosed int `json:"windows_closed"`
	}
	poll("/summary windows_closed >= 1", func() bool {
		return getJSON(addr, "/summary", &summary) && summary.WindowsClosed >= 1
	})
	var report struct {
		Pass string            `json:"pass"`
		Rows []json.RawMessage `json:"rows"`
	}
	if !getJSON(addr, "/reports/summary", &report) || report.Pass != "summary" || len(report.Rows) == 0 {
		t.Errorf("/reports/summary = %+v, want the summary pass with rows", report)
	}
	var metrics map[string]json.RawMessage
	if !getJSON(addr, "/metrics", &metrics) {
		t.Error("/metrics unreadable")
	} else if _, ok := metrics["frames_total"]; !ok {
		t.Errorf("/metrics has no frames_total: %v", metrics)
	}

	if err := <-replayed; err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if exitErr != nil {
			t.Fatalf("daemon exited with %v after SIGTERM\n%s", exitErr, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon still running 30 s after SIGTERM\n%s", logs.String())
	}
	lines := strings.Split(strings.TrimSpace(logs.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasSuffix(last, "clean exit") {
		t.Errorf("last log line %q, want clean exit\n%s", last, logs.String())
	}
}
