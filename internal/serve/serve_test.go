package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// liveRun drives a small scenario through the serial pipeline with a
// Monitor as the only core pass, the way jigd runs it.
// loneRadio is the id of the radio liveRun adds on a channel no other radio
// hears and no clock group bridges: the bootstrap cannot synchronize it.
const loneRadio = 9000

func liveRun(t *testing.T, windowUS int64) (*serve.Monitor, []int64) {
	t.Helper()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 6
	cfg.Day = 20 * sim.Second
	cfg.Seed = 5
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lone := dot80211.NewData(dot80211.MAC{2, 1}, dot80211.MAC{2, 2}, dot80211.MAC{2, 3}, 1, []byte("x"))
	var buf bytes.Buffer
	if err := tracefile.WriteAll(&buf, []tracefile.Record{{
		LocalUS: 1_000_000, RadioID: loneRadio, Channel: 14,
		Rate: uint16(dot80211.Rate11Mbps), Flags: tracefile.FlagFCSOK, Frame: lone.Encode(),
	}}); err != nil {
		t.Fatal(err)
	}
	out.Traces[loneRadio] = &buf
	apSet := scenario.APSet(out.APs)
	passes, err := analysis.Select("all", analysis.PassParams{
		SlotUS:     windowUS,
		MinPackets: 50,
		IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
		Out:        out,
	})
	if err != nil {
		t.Fatal(err)
	}
	var closes []int64
	mon, err := serve.NewMonitor(serve.MonitorConfig{
		WindowUS: windowUS,
		Passes:   passes,
		OnWindow: func(endUS int64) { closes = append(closes, endUS) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig()
	ccfg.Workers = 1
	ccfg.SnapshotEveryUS = serve.ProgressEveryUS
	ccfg.Passes = []core.Pass{mon}
	if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
		t.Fatal(err)
	}
	mon.Flush()
	return mon, closes
}

func TestMonitorWindows(t *testing.T) {
	const windowUS = 4_000_000
	mon, closes := liveRun(t, windowUS)

	if !mon.Healthy() {
		t.Fatal("monitor not healthy after a full run")
	}
	// ~20 compressed seconds at 4 s windows: at least 3 closes (the tail
	// window closes in Flush).
	if len(closes) < 3 {
		t.Fatalf("window closes = %v, want >= 3", closes)
	}
	for i := 1; i < len(closes); i++ {
		if closes[i] <= closes[i-1] {
			t.Fatalf("window ends not increasing: %v", closes)
		}
	}

	sum := mon.Summary()
	if sum.WindowsClosed != int64(len(closes)) {
		t.Errorf("WindowsClosed = %d, want %d", sum.WindowsClosed, len(closes))
	}
	if sum.Unify.JFrames == 0 {
		t.Error("summary unify stats empty; SetResult snapshots not forwarded")
	}
	if sum.LastWindowEnd != closes[len(closes)-1] {
		t.Errorf("LastWindowEnd = %d, want %d", sum.LastWindowEnd, closes[len(closes)-1])
	}
	if len(sum.UnsyncedRadios) != 1 || sum.UnsyncedRadios[0] != loneRadio {
		t.Errorf("UnsyncedRadios = %v, want [%d]", sum.UnsyncedRadios, loneRadio)
	}

	for _, name := range mon.PassNames() {
		rep, ok := mon.Report(name)
		if !ok {
			t.Errorf("no report for pass %q", name)
			continue
		}
		if rep.Pass != name {
			t.Errorf("report pass = %q, want %q", rep.Pass, name)
		}
		if rep.WindowEndUS <= rep.WindowStartUS {
			t.Errorf("%s: degenerate window [%d, %d]", name, rep.WindowStartUS, rep.WindowEndUS)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Errorf("%s: report does not marshal: %v", name, err)
		}
	}

	c := mon.Metrics()
	if c.FramesTotal == 0 || c.ExchangesTotal == 0 {
		t.Errorf("counters empty: %+v", c)
	}
}

func TestMonitorRejectsBadConfig(t *testing.T) {
	if _, err := serve.NewMonitor(serve.MonitorConfig{WindowUS: 0}); err == nil {
		t.Error("zero window must fail")
	}
	if _, err := serve.NewMonitor(serve.MonitorConfig{WindowUS: 1}); err == nil {
		t.Error("no passes must fail")
	}
}

// TestServerEndpoints exercises the HTTP surface end to end in-process:
// all four endpoints over a finished live run.
func TestServerEndpoints(t *testing.T) {
	mon, _ := liveRun(t, 4_000_000)
	srv := httptest.NewServer(serve.NewServer(mon, serve.Info{Dir: "test", Radios: []int32{0, 1}}))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q", path, ct)
		}
		return resp.StatusCode, b
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}

	code, body := get("/summary")
	if code != http.StatusOK {
		t.Fatalf("/summary = %d", code)
	}
	var sum map[string]any
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatalf("/summary not JSON: %v", err)
	}
	if sum["windows_closed"].(float64) < 3 {
		t.Errorf("/summary windows_closed = %v", sum["windows_closed"])
	}
	if u, _ := sum["unsynced_radios"].([]any); len(u) != 1 || u[0] != float64(loneRadio) {
		t.Errorf("/summary unsynced_radios = %v, want [%d]", sum["unsynced_radios"], loneRadio)
	}

	for _, name := range mon.PassNames() {
		code, body := get("/reports/" + name)
		if code != http.StatusOK {
			t.Errorf("/reports/%s = %d", name, code)
			continue
		}
		var rep map[string]any
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Errorf("/reports/%s not JSON: %v", name, err)
			continue
		}
		if rep["pass"] != name {
			t.Errorf("/reports/%s pass = %v", name, rep["pass"])
		}
		if _, ok := rep["rows"]; !ok {
			t.Errorf("/reports/%s has no rows", name)
		}
	}

	if code, _ := get("/reports/nonesuch"); code != http.StatusNotFound {
		t.Errorf("/reports/nonesuch = %d, want 404", code)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var met map[string]any
	if err := json.Unmarshal(body, &met); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	for _, key := range []string{"frames_total", "frames_per_sec", "heap_alloc_bytes", "watermark_lag_us"} {
		if _, ok := met[key]; !ok {
			t.Errorf("/metrics missing %q", key)
		}
	}
}

// TestHealthzBeforeFirstWindow pins the readiness gate: a fresh monitor
// serves 503 until a window closes.
func TestHealthzBeforeFirstWindow(t *testing.T) {
	passes, err := analysis.Select("summary", analysis.PassParams{SlotUS: 1})
	if err != nil {
		t.Fatal(err)
	}
	mon, err := serve.NewMonitor(serve.MonitorConfig{WindowUS: 1_000_000, Passes: passes})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.NewServer(mon, serve.Info{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz before first window = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/reports/summary")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/reports/summary before first window = %d, want 503", resp.StatusCode)
	}
}
