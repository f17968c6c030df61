package serve_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// frameCounts is what a summary report counts per window.
type frameCounts struct{ data, mgmt, control, beacon int64 }

// stampBinner is the windows' independent reference: a core.Pass beside the
// Monitor that keeps every valid jframe's own timestamp and class, so the
// test can bin them by time without asking the Monitor anything.
type stampBinner struct {
	seen           bool
	firstUS, maxUS int64
	stamps         []int64
	class          []frameCounts // one of the four set (beacons: mgmt and beacon)
}

func (b *stampBinner) ObserveExchange(*llc.Exchange) {}

func (b *stampBinner) ObserveJFrame(j *unify.JFrame) {
	if !b.seen {
		b.seen, b.firstUS, b.maxUS = true, j.UnivUS, j.UnivUS
	}
	b.maxUS = max(b.maxUS, j.UnivUS)
	if !j.Valid {
		return
	}
	var c frameCounts
	switch f := &j.Frame; {
	case f.IsBeacon():
		c.mgmt, c.beacon = 1, 1
	case f.Type == dot80211.TypeManagement:
		c.mgmt = 1
	case f.Type == dot80211.TypeControl:
		c.control = 1
	case f.IsData():
		c.data = 1
	default:
		return
	}
	b.stamps = append(b.stamps, j.UnivUS)
	b.class = append(b.class, c)
}

// bin counts the frames stamped in (afterUS, upToUS].
func (b *stampBinner) bin(afterUS, upToUS int64) frameCounts {
	var c frameCounts
	for i, us := range b.stamps {
		if us > afterUS && us <= upToUS {
			c.data += b.class[i].data
			c.mgmt += b.class[i].mgmt
			c.control += b.class[i].control
			c.beacon += b.class[i].beacon
		}
	}
	return c
}

// publishedWindow is one closed window as OnWindow saw it, with the jframe
// frontier at that moment.
type publishedWindow struct {
	startUS, endUS int64
	counts         frameCounts
	frontierUS     int64
}

// summaryMonitor builds a Monitor serving the summary pass that appends
// every window it publishes to *got.
func summaryMonitor(t *testing.T, windowUS int64, got *[]publishedWindow) *serve.Monitor {
	t.Helper()
	passes, err := analysis.Select("summary", analysis.PassParams{SlotUS: windowUS})
	if err != nil {
		t.Fatal(err)
	}
	var mon *serve.Monitor
	mon, err = serve.NewMonitor(serve.MonitorConfig{
		WindowUS: windowUS,
		Passes:   passes,
		OnWindow: func(int64) {
			rep, ok := mon.Report("summary")
			if !ok {
				t.Fatal("window closed without a summary report")
			}
			row := rep.Rows.([]*analysis.TraceSummary)[0]
			*got = append(*got, publishedWindow{rep.WindowStartUS, rep.WindowEndUS,
				frameCounts{row.DataFrames, row.MgmtFrames, row.ControlFrames, row.BeaconFrames}, mon.Metrics().FrontierUS})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// TestMonitorWindowsMatchTimestampBins checks window membership against the
// jframes' own timestamps: window k must report exactly the frames stamped
// in (end_{k-1}, end_k], window by window and not only in sum, whatever
// order and however long after their stamps the pipeline delivered them.
// The capture's 19.98 s are not a whole number of either window length, so
// the run also pins the grid: every window, the ones the end of the run
// closes included, has its own bounds on first jframe + k·window, and only
// the last is partial.
func TestMonitorWindowsMatchTimestampBins(t *testing.T) {
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 6
	cfg.Day = 20 * sim.Second
	cfg.Seed = 5
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for windowUS, windows := range map[int64]int{1_000_000: 20, 3_000_000: 7} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("window=%ds/workers=%d", windowUS/1_000_000, workers), func(t *testing.T) {
				var got []publishedWindow
				mon := summaryMonitor(t, windowUS, &got)
				ref := &stampBinner{}
				ccfg := core.DefaultConfig()
				ccfg.Workers = workers
				ccfg.SnapshotEveryUS = serve.ProgressEveryUS
				ccfg.Passes = []core.Pass{mon, ref}
				if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
					t.Fatal(err)
				}
				mon.Flush()

				if len(got) == 0 || got[len(got)-1].endUS < ref.maxUS {
					t.Fatalf("%d windows published, the last ending at %d; jframes run to %d", len(got), got[len(got)-1].endUS, ref.maxUS)
				}
				prevEnd := int64(math.MinInt64) // the first window also takes what inverted below its start
				for k, w := range got {
					if want := ref.bin(prevEnd, w.endUS); w.counts != want {
						t.Errorf("window %d (%d, %d]: summary counts %+v, frames stamped inside it %+v", k+1, prevEnd, w.endUS, w.counts, want)
					}
					prevEnd = w.endUS
				}

				if whole := int((ref.maxUS - ref.firstUS) / windowUS); len(got) != windows || whole != windows-1 {
					t.Errorf("%d windows over %d µs of jframes (%d whole ones), want %d", len(got), ref.maxUS-ref.firstUS, whole, windows)
				}
				for k, w := range got {
					if start := ref.firstUS + int64(k)*windowUS; w.startUS != start || w.endUS != start+windowUS {
						t.Errorf("window %d is [%d, %d], want [%d, %d]", k+1, w.startUS, w.endUS, start, start+windowUS)
					}
				}
				if c := mon.Metrics(); c.LateEvents != 0 || c.CompleteUS != math.MaxInt64 {
					t.Errorf("after the run late_events = %d, complete_us = %d; want 0 and +inf", c.LateEvents, c.CompleteUS)
				}
			})
		}
	}
}

// TestMonitorClosesHeldWindowsAtEnd drives the pipeline over hand-built
// records that end in 1.5 windows of FCS-failed frames. The reconstructor's
// watermark, and with it core's snapshots, advances only on valid jframes,
// so through that stretch nothing tells the Monitor a window is complete and
// it holds them; when the run ends each held window must close with its own
// bounds, not as one over-long report.
func TestMonitorClosesHeldWindowsAtEnd(t *testing.T) {
	const windowUS, stepUS = 1_000_000, 50_000
	recs := map[int32][]tracefile.Record{0: nil, 1: nil}
	var valid int64
	for us, seq := int64(1_000), uint16(1); us < 3_500_000; us, seq = us+stepUS, seq+1 {
		f := dot80211.NewData(dot80211.MAC{2, 0, 0, 0, 0, 9}, dot80211.MAC{2, 0, 0, 0, 0, 1},
			dot80211.MAC{2, 0, 0, 0, 0, 7}, seq, []byte{byte(seq), 0x5a})
		wire := f.Encode()
		flags := uint8(tracefile.FlagFCSOK)
		if us >= 2_000_000 {
			flags = 0
			wire[len(wire)-2] ^= 0xff
		} else {
			valid++
		}
		for r := range recs {
			if flags == 0 && r != 0 {
				continue // one radio hears the damaged tail
			}
			recs[r] = append(recs[r], tracefile.Record{LocalUS: us, RadioID: r, Channel: 1,
				Rate: uint16(dot80211.Rate11Mbps), Flags: flags, Frame: wire})
		}
	}
	raw := map[int32][]byte{}
	for r, rr := range recs {
		var buf bytes.Buffer
		if err := tracefile.WriteAll(&buf, rr); err != nil {
			t.Fatal(err)
		}
		raw[r] = buf.Bytes()
	}

	var got []publishedWindow
	mon := summaryMonitor(t, windowUS, &got)
	ref := &stampBinner{}
	ccfg := core.DefaultConfig()
	ccfg.Workers = 1
	ccfg.SnapshotEveryUS = serve.ProgressEveryUS
	ccfg.Passes = []core.Pass{mon, ref}
	if _, err := core.RunFrom(tracefile.NewBufferSet(raw), nil, ccfg, nil); err != nil {
		t.Fatal(err)
	}
	mon.Flush()

	if len(got) != 4 {
		t.Fatalf("published %d windows %+v, want 4", len(got), got)
	}
	for k, w := range got {
		if start := ref.firstUS + int64(k)*windowUS; w.startUS != start || w.endUS != start+windowUS {
			t.Errorf("window %d is [%d, %d], want [%d, %d]", k+1, w.startUS, w.endUS, start, start+windowUS)
		}
	}
	// Window 1 closed as soon as valid frames passed its end; 2 and 3 had to
	// wait for the end of the run, the frontier by then at the last frame.
	if got[0].frontierUS >= got[1].endUS || got[1].frontierUS != ref.maxUS || got[2].frontierUS != ref.maxUS {
		t.Errorf("windows %+v: want the frontier inside window 2 when window 1 closed, at the end (%d) for 2 and 3", got, ref.maxUS)
	}
	if got[0].counts.data+got[1].counts.data != valid || got[2].counts.data+got[3].counts.data != 0 {
		t.Errorf("data frames per window %+v, want %d valid ones in the first two and none after", got, valid)
	}
}

// TestMonitorCountsLateEvent drives a Monitor by hand past a window close
// and then hands it a jframe stamped inside the closed window — what a trace
// whose local clock stepped backwards would produce. The frame must reach
// the open window and be counted, not vanish.
func TestMonitorCountsLateEvent(t *testing.T) {
	var got []publishedWindow
	mon := summaryMonitor(t, 1_000_000, &got)
	beacon := func(us int64) *unify.JFrame {
		j := &unify.JFrame{UnivUS: us, Valid: true}
		j.Frame.Type, j.Frame.Subtype = dot80211.TypeManagement, dot80211.SubtypeBeacon
		return j
	}
	mon.ObserveJFrame(beacon(1_000))
	mon.ObserveJFrame(beacon(1_200_000))
	res := &core.Result{Bootstrap: &timesync.Result{}, CompleteUS: 1_100_000}
	mon.SetResult(res)
	if len(got) != 1 || got[0].counts.beacon != 1 {
		t.Fatalf("after complete_us passed the first window's end: windows %+v, want the first with one beacon", got)
	}
	if c := mon.Metrics(); c.LateEvents != 0 || c.CompleteUS != 1_100_000 || c.CompleteLagUS != 100_000 {
		t.Errorf("before the late frame: %+v", c)
	}
	mon.ObserveJFrame(beacon(900_000))
	if c := mon.Metrics(); c.LateEvents != 1 {
		t.Errorf("late_events = %d after a jframe stamped inside the closed window, want 1", c.LateEvents)
	}
	res.CompleteUS = math.MaxInt64
	mon.SetResult(res)
	mon.Flush()
	if len(got) != 2 || got[1].counts.beacon != 2 {
		t.Errorf("windows %+v: the late frame must be counted in the open window", got)
	}
}
