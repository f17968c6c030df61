// Windowed-vs-one-shot parity: the contract behind jigd's live reports.
// A WindowedPass driven continuously with FinalizeWindow/Evict at window
// boundaries must report, for every window, exactly what a fresh pass fed
// only that window's subsequence reports from one-shot Finalize. The
// driver side of the contract — only events at or before the boundary are
// delivered before the boundary's FinalizeWindow — is what serve.Monitor
// enforces with its delivery buffer; this test mimics that delivery over
// collected slices.
package core_test

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/unify"
)

// windowSlices is the order-preserving filter of one window's subsequence:
// jframes by UnivUS, exchanges by CloseUS, both in (fromUS, toUS].
func windowSlices(jframes []*unify.JFrame, exchanges []*llc.Exchange, fromUS, toUS int64) ([]*unify.JFrame, []*llc.Exchange) {
	var wj []*unify.JFrame
	for _, j := range jframes {
		if j.UnivUS > fromUS && j.UnivUS <= toUS {
			wj = append(wj, j)
		}
	}
	var wx []*llc.Exchange
	for _, ex := range exchanges {
		if ex.CloseUS > fromUS && ex.CloseUS <= toUS {
			wx = append(wx, ex)
		}
	}
	return wj, wx
}

func TestWindowedPassParity(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() scenario.Config
	}{
		{"default", func() scenario.Config {
			cfg := scenario.Default()
			cfg.Pods, cfg.APs, cfg.Clients = 5, 5, 8
			return cfg
		}},
		{"roaming", func() scenario.Config {
			cfg := scenario.Roaming()
			cfg.Pods, cfg.APs, cfg.Clients = 5, 9, 8
			cfg.MobileClients = 3
			cfg.MoveSpeedMPS = 6
			return cfg
		}},
	}
	const windows = 3
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Seed = 1
			cfg.Day = 30 * sim.Second
			out, err := scenario.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			live := unify.LiveJFrames()
			ccfg := core.DefaultConfig()
			ccfg.Workers = 1
			var res core.Collection
			if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, res.Sink()); err != nil {
				t.Fatal(err)
			}
			if len(res.JFrames) == 0 || len(res.Exchanges) == 0 {
				t.Fatal("empty streams")
			}

			firstUS := res.JFrames[0].UnivUS
			lastUS := firstUS
			for _, j := range res.JFrames {
				if j.UnivUS > lastUS {
					lastUS = j.UnivUS
				}
			}
			for _, ex := range res.Exchanges {
				if ex.CloseUS > lastUS {
					lastUS = ex.CloseUS
				}
			}
			span := lastUS - firstUS + 1
			step := span / windows

			cont := parityPasses(t, out)
			windowed := make([]analysis.WindowedPass, len(cont))
			for i, p := range cont {
				wp, ok := p.(analysis.WindowedPass)
				if !ok {
					t.Fatalf("pass %q does not implement WindowedPass", p.Name())
				}
				windowed[i] = wp
			}

			prev := firstUS - 1
			for k := 0; k < windows; k++ {
				end := firstUS + int64(k+1)*step - 1
				if k == windows-1 {
					end = lastUS
				}
				wj, wx := windowSlices(res.JFrames, res.Exchanges, prev, end)
				if len(wj) == 0 {
					t.Fatalf("window %d is empty; widen the scenario", k)
				}

				core.DriveSlices(analysis.CorePasses(cont), wj, wx)
				contReps := make(map[string]analysis.Report, len(windowed))
				for _, wp := range windowed {
					contReps[wp.Name()] = wp.FinalizeWindow(end)
					// Boundary eviction must be invisible in every later
					// report: parity of the remaining windows against fresh
					// passes (which never evict) proves it.
					wp.Evict(end)
				}

				fresh := parityPasses(t, out)
				core.DriveSlices(analysis.CorePasses(fresh), wj, wx)
				for _, p := range fresh {
					want := p.Finalize()
					if got := contReps[p.Name()]; !reflect.DeepEqual(got, want) {
						t.Errorf("window %d pass %q: windowed report differs from one-shot over the window:\n got:  %+v\n want: %+v",
							k, p.Name(), got, want)
					}
				}
				prev = end
			}
			res.Release()
			if n := unify.LiveJFrames() - live; n != 0 {
				t.Errorf("%d pooled jframes still referenced after releasing the collection", n)
			}
		})
	}
}
