package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/unify"
)

// Shared roaming scenario + pipeline run for the handoff tests, the
// handoff detector attached inline.
var (
	roamOut *scenario.Output
	roamRep *RoamingReport
)

func roamSetup(t *testing.T) (*scenario.Output, *RoamingReport) {
	t.Helper()
	if roamOut != nil {
		return roamOut, roamRep
	}
	out, err := scenario.Run(scenario.Roaming())
	if err != nil {
		t.Fatal(err)
	}
	pass := NewRoamingPass(apPredicate(out))
	ccfg := core.DefaultConfig()
	ccfg.Passes = []core.Pass{pass}
	if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, nil); err != nil {
		t.Fatal(err)
	}
	roamOut, roamRep = out, pass.Finalize().(*RoamingReport)
	return out, roamRep
}

// detect feeds a synthetic exchange sequence to a fresh RoamingPass.
func detect(exs []*llc.Exchange, isAP func(dot80211.MAC) bool) *RoamingReport {
	p := NewRoamingPass(isAP)
	for _, ex := range exs {
		p.ObserveExchange(ex)
	}
	return p.Finalize().(*RoamingReport)
}

func apPredicate(out *scenario.Output) func(dot80211.MAC) bool {
	set := make(map[dot80211.MAC]bool, len(out.APs))
	for _, ap := range out.APs {
		set[ap.MAC] = true
	}
	return func(m dot80211.MAC) bool { return set[m] }
}

// TestRoamingScenarioGroundTruth: the Roaming preset must actually move
// its clients — at least one completed handoff per mobile client — and
// leave coherent ground truth.
func TestRoamingScenarioGroundTruth(t *testing.T) {
	out, _ := roamSetup(t)
	if len(out.MobileMACs) != out.Cfg.MobileClients {
		t.Fatalf("mobile roster = %d, want %d", len(out.MobileMACs), out.Cfg.MobileClients)
	}
	perClient := map[dot80211.MAC]int{}
	for _, h := range out.Handoffs {
		if h.Client.IsZero() || h.ToAP.IsZero() {
			t.Fatalf("malformed handoff record: %+v", h)
		}
		if h.Completed {
			if h.CompleteUS < h.DecideUS {
				t.Fatalf("handoff completes before its decision: %+v", h)
			}
			perClient[h.Client]++
		}
	}
	for _, m := range out.MobileMACs {
		if perClient[m] < 1 {
			t.Errorf("mobile client %v: no completed handoff", m)
		}
	}
}

// TestDetectHandoffsRecall: the analysis pass, fed only reconstructed
// exchanges, must recover at least 90%% of ground-truth handoffs.
func TestDetectHandoffsRecall(t *testing.T) {
	out, rep := roamSetup(t)
	sc := ScoreHandoffs(out.Handoffs, rep)
	t.Logf("truth=%d matched=%d events=%d recall=%.2f meanEndErr=%.1fms meanLatency=%.1fms",
		sc.Truth, sc.Matched, sc.Events, sc.Recall, sc.MeanAbsEndErrUS/1e3, rep.MeanLatencyUS/1e3)
	if sc.Truth == 0 {
		t.Fatal("no ground-truth handoffs to score against")
	}
	if sc.Recall < 0.9 {
		t.Errorf("handoff recall = %.2f, want >= 0.90", sc.Recall)
	}
	// Detected latencies must be physically plausible: positive, and
	// bounded by the scan/handshake budget.
	for _, e := range rep.Events {
		if !e.MgmtEvidence {
			continue
		}
		if l := e.LatencyUS(); l <= 0 || l > 5_000_000 {
			t.Errorf("implausible handoff latency %d us: %+v", l, e)
		}
	}
	// The detector must not hallucinate wildly: events should not exceed
	// truth by more than a factor of two.
	if sc.Events > 2*sc.Truth {
		t.Errorf("detector emitted %d events for %d true handoffs", sc.Events, sc.Truth)
	}
}

// TestDetectHandoffsEmpty: no exchanges, no events; and a stationary
// scenario's stream must not produce phantom handoffs per client beyond a
// small tolerance.
func TestDetectHandoffsEmpty(t *testing.T) {
	rep := detect(nil, func(dot80211.MAC) bool { return false })
	if len(rep.Events) != 0 {
		t.Fatalf("events from empty stream: %d", len(rep.Events))
	}
}

// TestDetectHandoffsDataOnlyTransition: with the management handshake
// absent from the stream, a sustained AP change in data exchanges is still
// reported (and a single straggler toward another AP is not).
func TestDetectHandoffsDataOnlyTransition(t *testing.T) {
	cli := dot80211.MAC{0xc2, 0, 0, 0, 0, 1}
	ap1 := dot80211.MAC{0xaa, 0, 0, 0, 0, 1}
	ap2 := dot80211.MAC{0xaa, 0, 0, 0, 0, 2}
	isAP := func(m dot80211.MAC) bool { return m[0] == 0xaa }

	dataEx := func(tx, rx dot80211.MAC, us int64) *llc.Exchange {
		f := dot80211.NewData(rx, tx, rx, uint16(us%4096), []byte("x"))
		j := &unify.JFrame{UnivUS: us, Frame: f, Wire: f.Encode(), Valid: true}
		at := &llc.Attempt{Data: j, Transmitter: tx, Receiver: rx, StartUS: us, EndUS: us + 100}
		return &llc.Exchange{Attempts: []*llc.Attempt{at}, Transmitter: tx, Receiver: rx,
			Delivery: llc.DeliveryObserved, StartUS: us, EndUS: us + 100, CloseUS: us + 100}
	}

	// One straggler toward ap2 sandwiched by ap1 traffic: no event.
	exs := []*llc.Exchange{
		dataEx(cli, ap1, 1000), dataEx(cli, ap1, 2000),
		dataEx(cli, ap2, 3000),
		dataEx(cli, ap1, 4000), dataEx(cli, ap1, 5000),
	}
	rep := detect(exs, isAP)
	if len(rep.Events) != 0 {
		t.Fatalf("straggler produced events: %+v", rep.Events)
	}

	// A sustained move to ap2 is reported exactly once.
	exs = append(exs,
		dataEx(cli, ap2, 6000), dataEx(ap2, cli, 7000), dataEx(cli, ap2, 8000),
		dataEx(cli, ap2, 9000),
	)
	rep = detect(exs, isAP)
	if len(rep.Events) != 1 {
		t.Fatalf("sustained transition events = %d, want 1", len(rep.Events))
	}
	e := rep.Events[0]
	if e.Client != cli || e.FromAP != ap1 || e.ToAP != ap2 || e.MgmtEvidence {
		t.Fatalf("wrong event: %+v", e)
	}
	// StartUS must anchor at the sustained move (6000), not the earlier
	// straggler toward ap2 (3000) that serving-AP traffic invalidated.
	if e.StartUS != 6000 {
		t.Fatalf("event StartUS = %d, want 6000 (fresh candidacy)", e.StartUS)
	}
}

// TestRoamDisruptionByCC: every algorithm in the mix shows up, mobile
// flows exist, and at least one algorithm saw a disrupted flow.
func TestRoamDisruptionByCC(t *testing.T) {
	out, rep := roamSetup(t)
	rows := RoamDisruptionByCC(out)
	if len(rows) < 3 {
		t.Fatalf("disruption rows = %d, want >= 3 (reno/cubic/bbr): %+v", len(rows), rows)
	}
	flows, disrupted := 0, 0
	for _, r := range rows {
		flows += r.Flows
		disrupted += r.Disrupted
		if r.Disrupted > 0 && r.MeanStallUS <= 0 {
			t.Errorf("%s: disrupted flows with zero stall", r.Algo)
		}
	}
	if flows == 0 {
		t.Fatal("no mobile flows in ground truth")
	}
	if disrupted == 0 {
		t.Error("no flow was disrupted by any handoff")
	}
	if s := RoamingTable(rep, rows); s == "" {
		t.Error("empty roaming table")
	}
}
