package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/unify"
)

// eventLog is a core.Pass beside the Monitor that keeps every jframe and
// exchange in the order the pipeline delivered them, holding a reference on
// each until release.
type eventLog struct {
	jframes []*unify.JFrame // one of the two set per event
	exs     []*llc.Exchange
}

func (l *eventLog) ObserveJFrame(j *unify.JFrame) {
	j.Retain()
	l.jframes, l.exs = append(l.jframes, j), append(l.exs, nil)
}

func (l *eventLog) ObserveExchange(ex *llc.Exchange) {
	ex.Retain()
	l.jframes, l.exs = append(l.jframes, nil), append(l.exs, ex)
}

// replay feeds passes, in arrival order, every logged event whose stamp (a
// jframe's UnivUS, an exchange's CloseUS) satisfies in.
func (l *eventLog) replay(passes []analysis.Pass, in func(us int64) bool) {
	for i, j := range l.jframes {
		if ex := l.exs[i]; ex != nil {
			if in(ex.CloseUS) {
				for _, p := range passes {
					p.ObserveExchange(ex)
				}
			}
		} else if in(j.UnivUS) {
			for _, p := range passes {
				p.ObserveJFrame(j)
			}
		}
	}
}

func (l *eventLog) release() {
	for i, j := range l.jframes {
		if ex := l.exs[i]; ex != nil {
			ex.Release()
		} else {
			j.Release()
		}
	}
	l.jframes, l.exs = nil, nil
}

// TestMonitorWindowGolden pins what Monitor itself publishes: a sha256
// over every closed window's WindowReport JSON, in close order, for every
// registry pass that runs without ground truth. No pass reads core.Result,
// so a window's reports depend only on the events it was given, and Workers
// 1 and 2 publish the same digest.
//
// The same run checks that each published report is the one-shot report over
// its window's events: an eventLog beside the Monitor records the delivered
// stream, and for every closed window a fresh pass set is fed that window's
// events — jframes by UnivUS, exchanges by CloseUS over (start, end], the
// first window taking everything up to its end and the Flush window
// everything after its start — and must finalize to the published sections.
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
		digest   string
	}{
		{3_000_000, 7, "346aa63c73e7c89120c105f892c6f4efc02cfb2577c2e35def76b9db024d2dad"},
		{7_000_000, 3, "2ce16a033b283762d66eb41e255cbcc541c1d9b247b6825c698b9470b723547c"},
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
					mon       *serve.Monitor
					h         = sha256.New()
					published [][]serve.WindowReport // per window, in PassNames order
				)
				mon, err = serve.NewMonitor(serve.MonitorConfig{
					WindowUS: g.windowUS,
					Passes:   passes,
					OnWindow: func(int64) {
						var reps []serve.WindowReport
						for _, name := range mon.PassNames() {
							rep, ok := mon.Report(name)
							if !ok {
								t.Errorf("window %d: no %s report", len(published)+1, name)
								continue
							}
							b, err := json.Marshal(rep)
							if err != nil {
								t.Fatal(err)
							}
							h.Write(b)
							h.Write([]byte{'\n'})
							reps = append(reps, rep)
						}
						published = append(published, reps)
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				log := &eventLog{}
				defer log.release()
				ccfg := core.DefaultConfig()
				ccfg.Workers = workers
				ccfg.SnapshotEveryUS = serve.ProgressEveryUS
				ccfg.Passes = []core.Pass{mon, log}
				if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
					t.Fatal(err)
				}
				mon.Flush()

				if got := hex.EncodeToString(h.Sum(nil)); len(published) != g.windows || got != g.digest {
					t.Errorf("published %d windows with digest %s, want %d with %s", len(published), got, g.windows, g.digest)
				}
				if c := mon.Metrics(); c.LateEvents != 0 {
					t.Fatalf("late_events = %d, want 0: window membership is not by stamp alone", c.LateEvents)
				}
				for k, reps := range published {
					startUS, endUS := reps[0].WindowStartUS, reps[0].WindowEndUS
					first, last := k == 0, k == len(published)-1
					fresh := passes.New()
					log.replay(fresh, func(us int64) bool {
						return (first || us > startUS) && (last || us <= endUS)
					})
					for i, p := range fresh {
						if reps[i].Pass != p.Name() {
							t.Fatalf("window %d: report %d is %s, want %s", k+1, i, reps[i].Pass, p.Name())
						}
						want, err := analysis.SectionJSON(p.Name(), p.Finalize())
						if err != nil {
							t.Fatal(err)
						}
						wb, err := json.Marshal(want)
						if err != nil {
							t.Fatal(err)
						}
						gb, err := json.Marshal(reps[i].Section)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(gb, wb) {
							t.Errorf("window %d (%d, %d]: published %s differs from a one-shot pass over the window's events:\n got  %s\n want %s",
								k+1, startUS, endUS, p.Name(), gb, wb)
						}
					}
				}
			})
		}
	}
}
