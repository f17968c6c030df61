package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestMonitorWindowGolden pins what Monitor itself publishes: a sha256
// over every closed window's WindowReport JSON, in close order, for every
// registry pass that runs without ground truth. Workers 1 and 2 publish the
// same windows except for summary's cumulative unify counters, which a
// pipelined snapshot reads up to a slab ahead (core.Config.SnapshotEveryUS),
// so each setting has its own digest.
//
// There are two digests per case. The masked one (maskedJSON) leaves out what
// a report quotes from the cumulative core.Result and transport analyzer at
// the moment of the close, so it depends only on which events each window
// was given; it was computed at commit 9798794, where a window closed one
// second of frontier after its end, and must hold for any other close rule.
// The full ones were computed at d34d381 and re-pinned once, in PR 22, with
// the masked ones shown unchanged: closing on core.Result.CompleteUS under
// ProgressEveryUS snapshots reads those cumulative totals about a second of
// trace earlier, and current to 10 ms instead of up to a window stale. The
// 3 s ones were re-pinned once more, the masked ones again unchanged, when
// the unifier began to emit in time order: a snapshot's CompleteUS became the
// reconstruction watermark alone, so some windows close at other snapshots
// and quote other cumulative unify counters (two windows at Workers 1, five
// at Workers 2, one of which also quotes a tcploss total one loss lower).
//
// The same run checks conservation: a one-shot summary pass attached
// beside the Monitor counts each jframe once, so the windows' frame counts
// must sum to its totals — no event dropped at a boundary, none delivered
// to two windows.
func TestMonitorWindowGolden(t *testing.T) {
	cfg := scenario.Roaming()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 9, 6
	cfg.MobileClients = 3
	cfg.MoveSpeedMPS = 6
	cfg.Day = 20 * sim.Second
	cfg.Seed = 5
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apSet := scenario.APSet(out.APs)
	var names []string
	for _, spec := range analysis.PassSpecs() {
		if !spec.NeedsTruth {
			names = append(names, spec.Name)
		}
	}

	golden := []struct {
		windowUS int64
		windows  int
		digest   map[int]string // by Workers
		masked   string         // over maskedJSON: the same at both Workers settings
	}{
		{3_000_000, 7, map[int]string{
			1: "f6decfa6b8e3525f0c91565c550c503cdf502ba35718670ee934e235c271e171",
			2: "19d4aac48d931dbf114d2dd777d569b330db4902e2a0c78f687ff94fd5c0e04a",
		}, "eda19e00aa25c07a6493a8d457218df20057cdc5d825a7fe21d08dae0b13c714"},
		{7_000_000, 3, map[int]string{
			1: "1b5c338e2b0a069152df4ea50f152dc7481f5c57062ccf7391cd05e438313472",
			2: "54b08801585eb8b28991ab496ce92e8a380fc2ac67d118647bb145cb1f2831bf",
		}, "11254e4a8cee9319f2fba965887773f9cf8075cba1ba2e7d2c480a61794e85c4"},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("window=%ds/workers=%d", g.windowUS/1_000_000, workers), func(t *testing.T) {
				passes, err := analysis.Select(strings.Join(names, ","), analysis.PassParams{
					SlotUS:     out.Cfg.HourDur().US64(),
					MinPackets: 50,
					IsAP:       func(m dot80211.MAC) bool { return apSet[m] },
					VizFromUS:  g.windowUS / 2,
					VizDurUS:   4_000,
					VizWidth:   96,
				})
				if err != nil {
					t.Fatal(err)
				}
				var (
					mon     *serve.Monitor
					h       = sha256.New()
					hm      = sha256.New()
					windows int
					sum     analysis.TraceSummary
				)
				mon, err = serve.NewMonitor(serve.MonitorConfig{
					WindowUS: g.windowUS,
					Passes:   passes,
					OnWindow: func(int64) {
						windows++
						for _, name := range mon.PassNames() {
							rep, ok := mon.Report(name)
							if !ok {
								t.Errorf("window %d: no %s report", windows, name)
								continue
							}
							b, err := json.Marshal(rep)
							if err != nil {
								t.Fatal(err)
							}
							h.Write(b)
							h.Write([]byte{'\n'})
							hm.Write(maskedJSON(t, rep))
							hm.Write([]byte{'\n'})
							if name != "summary" {
								continue
							}
							row := rep.Rows.([]*analysis.TraceSummary)[0]
							sum.DataFrames += row.DataFrames
							sum.MgmtFrames += row.MgmtFrames
							sum.ControlFrames += row.ControlFrames
							sum.BeaconFrames += row.BeaconFrames
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				oneShot := analysis.NewSummaryPass()
				ccfg := core.DefaultConfig()
				ccfg.Workers = workers
				ccfg.SnapshotEveryUS = serve.ProgressEveryUS
				ccfg.Passes = []core.Pass{mon, oneShot}
				if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
					t.Fatal(err)
				}
				mon.Flush()

				if got := hex.EncodeToString(h.Sum(nil)); windows != g.windows || got != g.digest[workers] {
					t.Errorf("published %d windows with digest %s, want %d with %s", windows, got, g.windows, g.digest[workers])
				}
				if got := hex.EncodeToString(hm.Sum(nil)); got != g.masked {
					t.Errorf("masked digest %s, want %s", got, g.masked)
				}
				want := oneShot.Finalize().(*analysis.TraceSummary)
				if want.DataFrames == 0 || want.BeaconFrames == 0 {
					t.Fatalf("one-shot summary is empty: %+v", want)
				}
				if sum.DataFrames != want.DataFrames || sum.MgmtFrames != want.MgmtFrames ||
					sum.ControlFrames != want.ControlFrames || sum.BeaconFrames != want.BeaconFrames {
					t.Errorf("windows sum to data %d mgmt %d control %d beacon %d, the one-shot pass counted %d %d %d %d",
						sum.DataFrames, sum.MgmtFrames, sum.ControlFrames, sum.BeaconFrames,
						want.DataFrames, want.MgmtFrames, want.ControlFrames, want.BeaconFrames)
				}
			})
		}
	}
}

// maskedJSON is a window report's JSON without what it quotes from the
// cumulative core.Result or transport analyzer at the moment the window
// closes: summary's six result-derived fields zeroed, tcploss's rows
// dropped. What remains depends only on which events the window was given.
func maskedJSON(t *testing.T, rep serve.WindowReport) []byte {
	t.Helper()
	switch rep.Pass {
	case "summary":
		row := *rep.Rows.([]*analysis.TraceSummary)[0]
		row.Events, row.ErrorEventPct, row.UnifiedEvents, row.JFrames = 0, 0, 0, 0
		row.TCPFlows, row.CompleteFlows = 0, 0
		rep.Rows = []*analysis.TraceSummary{&row}
	case "tcploss":
		rep.Rows = []struct{}{}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
