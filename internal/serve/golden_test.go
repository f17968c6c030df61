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
// registry pass that runs without ground truth. The digests were computed
// at commit d34d381, where each pass reset itself in place between
// windows; they must hold for any other way of giving a window its passes.
// Workers 1 and 2 publish the same windows except for summary's cumulative
// unify counters, which a pipelined snapshot reads up to a slab ahead
// (core.Config.SnapshotEveryUS), so each setting has its own digest.
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
	}{
		{3_000_000, 7, map[int]string{
			1: "54d2362048b00f5a7415961c438468ceb45b862384d481f870cd6b67eadbccb0",
			2: "b2254c876af906a0ec09c4fc6c899a9cb344ee72da550c39c38741d7960ab1dd",
		}},
		{7_000_000, 3, map[int]string{
			1: "136230451ab0e617649f31103998ed71e261b01d6b22f436f402fae840f96c3f",
			2: "12bb383ea8b88ae49873c9436ffa3057edcf306bec3b7d59b13e7d5b536674e1",
		}},
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
				ccfg.SnapshotEveryUS = g.windowUS
				ccfg.Passes = []core.Pass{mon, oneShot}
				if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
					t.Fatal(err)
				}
				mon.Flush()

				if got := hex.EncodeToString(h.Sum(nil)); windows != g.windows || got != g.digest[workers] {
					t.Errorf("published %d windows with digest %s, want %d with %s", windows, got, g.windows, g.digest[workers])
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
