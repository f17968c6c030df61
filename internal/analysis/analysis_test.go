package analysis

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Shared scenario + pipeline run for all analysis tests: every pass the
// tests look at rides the one run inline, finalized once.
type sharedRun struct {
	out    *scenario.Output
	res    *core.Result
	cov    *CoverageReport
	sum    *TraceSummary
	slots  []ActivitySlot
	intf   *InterferenceReport
	prot   *ProtectionReport
	diags  []StationDiagnosis
	loss   *TCPLossReport
	vizStr string
	// ta is a transport analyzer fed the run's exchanges beside the passes,
	// for the analyzer counters no report carries.
	ta *transport.Analyzer
}

var shared sharedRun

func setup(t *testing.T) (*scenario.Output, *core.Result) {
	t.Helper()
	if shared.out != nil {
		return shared.out, shared.res
	}
	cfg := scenario.Default()
	cfg.Seed = 3
	cfg.Pods, cfg.APs, cfg.Clients = 8, 8, 14
	cfg.Day = 90 * sim.Second
	cfg.FlowMeanGap = 6 * sim.Second
	cfg.BFraction = 0.35
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apSet := scenario.APSet(out.APs)
	slotUS := out.Cfg.HourDur().US64() // one "hour" per slot
	cov := NewCoveragePass(out)
	sum := NewSummaryPass()
	ts := NewTimeSeriesPass(slotUS)
	intf := NewInterferencePass(20, func(m dot80211.MAC) bool { return apSet[m] })
	prot := NewProtectionPass(slotUS, slotUS)
	diag := NewDiagnosisPass()
	loss := NewTCPLossPass(5)
	viz := NewVizPassRelative(0, 5000, 100)
	ta := transport.NewAnalyzer()
	ccfg := core.DefaultConfig()
	ccfg.Passes = []core.Pass{cov, sum, ts, intf, prot, diag, loss, viz}
	res, err := core.RunFrom(out.TraceSet(), out.ClockGroups, ccfg, &core.Sink{OnExchange: ta.AddExchange})
	if err != nil {
		t.Fatal(err)
	}
	shared = sharedRun{
		out: out, res: res,
		cov:    cov.Finalize().(*CoverageReport),
		sum:    sum.Finalize().(*TraceSummary),
		slots:  ts.Finalize().([]ActivitySlot),
		intf:   intf.Finalize().(*InterferenceReport),
		prot:   prot.Finalize().(*ProtectionReport),
		diags:  diag.Finalize().([]StationDiagnosis),
		loss:   loss.Finalize().(*TCPLossReport),
		vizStr: viz.Finalize().(string),
		ta:     ta,
	}
	return out, res
}

func TestCoverageHighAndShaped(t *testing.T) {
	setup(t)
	rep := shared.cov
	if rep.TotalWired == 0 {
		t.Fatal("no wired packets to compare")
	}
	// Paper: 97% of wired-trace packets also in the wireless trace.
	if rep.Overall < 0.85 {
		t.Errorf("overall coverage = %.3f, want high (paper 0.97)", rep.Overall)
	}
	// APs are covered at least as well as clients (pods sit near APs).
	if rep.APCoverage < rep.ClientCoverage-0.05 {
		t.Errorf("AP coverage (%.3f) should not trail client coverage (%.3f)",
			rep.APCoverage, rep.ClientCoverage)
	}
	if len(rep.Stations) == 0 {
		t.Error("no per-station rows")
	}
	for _, s := range rep.Stations {
		if f := s.Fraction(); f < 0 || f > 1 {
			t.Errorf("station %v coverage out of range: %f", s.MAC, f)
		}
	}
}

func TestOracleCoverage(t *testing.T) {
	out, _ := setup(t)
	overall, per := OracleCoverage(out)
	// Paper's controlled experiment: 95% of client link-level events
	// captured; related studies 80–97%.
	if overall < 0.8 {
		t.Errorf("oracle coverage = %.3f, want ≥ 0.8", overall)
	}
	if len(per) == 0 {
		t.Error("no per-client coverage")
	}
}

func TestPodSweepShape(t *testing.T) {
	out, _ := setup(t)
	rows, err := PodSweep(out, []int{8, 6, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Fig. 7 shape: client coverage degrades markedly with fewer pods;
	// AP coverage stays comparatively stable.
	if rows[2].ClientCoverage > rows[0].ClientCoverage {
		t.Errorf("client coverage should not improve when pods are removed: %v", rows)
	}
	apDrop := rows[0].APCoverage - rows[2].APCoverage
	cliDrop := rows[0].ClientCoverage - rows[2].ClientCoverage
	if cliDrop < apDrop-0.02 {
		t.Errorf("client coverage should degrade at least as much as AP coverage (cli %.3f vs ap %.3f)",
			cliDrop, apDrop)
	}
}

func TestSummaryTable1(t *testing.T) {
	out, _ := setup(t)
	s := shared.sum
	if s.Events == 0 || s.JFrames == 0 {
		t.Fatal("empty summary")
	}
	// Error events are a substantial share (paper: 47%).
	if s.ErrorEventPct < 5 || s.ErrorEventPct > 80 {
		t.Errorf("error event share = %.1f%%, implausible", s.ErrorEventPct)
	}
	// Multiple observations per transmission (paper: 2.97).
	if s.AvgInstances < 1.5 {
		t.Errorf("avg instances = %.2f, want > 1.5", s.AvgInstances)
	}
	if s.UniqueAPs == 0 || s.UniqueClients == 0 {
		t.Error("no stations classified")
	}
	if s.UniqueAPs > len(out.APs) {
		t.Errorf("classified %d APs, only %d exist", s.UniqueAPs, len(out.APs))
	}
	if s.BeaconFrames == 0 || s.DataFrames == 0 {
		t.Error("frame type counts empty")
	}
	if !strings.Contains(s.String(), "jframes") {
		t.Error("String() missing fields")
	}
}

func TestInferenceRates(t *testing.T) {
	_, res := setup(t)
	inf := Inference(res.LLCStats)
	if inf.Attempts == 0 {
		t.Fatal("no attempts")
	}
	// Paper: 0.58% attempts, 0.14% exchanges. Dense monitor coverage here
	// keeps it small too.
	if inf.AttemptRate() > 0.05 {
		t.Errorf("attempt inference rate %.4f too high", inf.AttemptRate())
	}
	if inf.ExchangeRate() > 0.05 {
		t.Errorf("exchange inference rate %.4f too high", inf.ExchangeRate())
	}
}

func TestTimeSeriesFig8(t *testing.T) {
	setup(t)
	slots := shared.slots
	if len(slots) < 20 {
		t.Fatalf("slots = %d, want ~24", len(slots))
	}
	var peakClients, nightClients int
	for i, s := range slots {
		if i >= 10 && i <= 16 && s.ActiveClients > peakClients {
			peakClients = s.ActiveClients
		}
		if i >= 1 && i <= 5 && s.ActiveClients > nightClients {
			nightClients = s.ActiveClients
		}
	}
	// Diurnal shape: more clients active midday than overnight.
	if peakClients <= nightClients {
		t.Errorf("no diurnal shape: peak=%d night=%d", peakClients, nightClients)
	}
	// Beacons present in every slot (APs beacon regardless of activity).
	for i, s := range slots[:len(slots)-1] {
		if s.BeaconBytes == 0 {
			t.Errorf("slot %d has no beacon traffic", i)
		}
	}
	// ARP pathology visible.
	var arp int64
	for _, s := range slots {
		arp += s.ARPBytes
	}
	if arp == 0 {
		t.Error("no ARP broadcast traffic observed")
	}
	// Broadcast consumes a noticeable share of airtime (paper ~10%).
	share := BroadcastAirtimeShare(slots)
	if share < 0.01 || share > 0.6 {
		t.Errorf("broadcast airtime share = %.3f, implausible", share)
	}
}

func TestInterferenceFig9(t *testing.T) {
	setup(t)
	rep := shared.intf
	if len(rep.Pairs) == 0 {
		t.Fatal("no qualifying (s,r) pairs")
	}
	// Background loss exists but is bounded.
	if rep.AvgBackgroundLoss < 0 || rep.AvgBackgroundLoss > 0.6 {
		t.Errorf("background loss = %.3f", rep.AvgBackgroundLoss)
	}
	// X values form a valid CDF in [0,1].
	for _, x := range rep.XCDF {
		if x < 0 || x > 1 {
			t.Fatalf("X out of range: %f", x)
		}
	}
	// Median X is small (paper: 50% of pairs ≤ 0.025); some interference
	// exists in a building with hidden terminals.
	if med := rep.XPercentile(0.5); med > 0.2 {
		t.Errorf("median interference loss rate = %.3f, want small", med)
	}
	if rep.FractionWithInterference == 0 {
		t.Error("no pair shows interference at all")
	}
}

func TestProtectionFig10(t *testing.T) {
	setup(t)
	rep := shared.prot
	if rep.PotentialSpeedup < 1.9 || rep.PotentialSpeedup > 2.05 {
		t.Errorf("potential speedup = %.2f, want ≈2 (footnote 7)", rep.PotentialSpeedup)
	}
	var protSlots int
	for _, s := range rep.Slots {
		if s.ProtectedAPs > 0 {
			protSlots++
		}
		if s.Overprotective > s.ProtectedAPs {
			t.Fatal("overprotective count exceeds protected count")
		}
		if s.GOnOverprotected > s.ActiveGClients {
			t.Fatal("affected g clients exceed active g clients")
		}
	}
	// With 30% b clients and the 1-hour timeout, protection shows up.
	if protSlots == 0 {
		t.Error("protection mode never observed despite b clients")
	}
}

func TestTCPLossFig11(t *testing.T) {
	setup(t)
	rep := shared.loss
	if rep.Flows == 0 {
		t.Fatal("no flows for loss analysis")
	}
	// Fig. 11: the wireless component dominates TCP loss.
	if rep.TotalLosses > 10 && rep.WirelessShare < 0.5 {
		t.Errorf("wireless loss share = %.3f, paper expects dominance", rep.WirelessShare)
	}
}

func TestVisualize(t *testing.T) {
	setup(t)
	if s := shared.vizStr; !strings.Contains(s, "universal time") || !strings.Contains(s, "frames:") {
		t.Error("visualization missing sections")
	}
	if NewVizPassRelative(0, 100, 80).Finalize().(string) == "" {
		t.Error("empty window should still render a message")
	}
}

func TestTransportOracleResolvesDeliveries(t *testing.T) {
	setup(t)
	if shared.ta.Stats.ResolvedByOracle == 0 {
		t.Error("the covering-ACK oracle resolved no unknown delivery")
	}
}

func TestRoamingOracleExperiment(t *testing.T) {
	cfg := scenario.Default()
	cfg.Seed = 9
	cfg.Pods, cfg.APs, cfg.Clients = 8, 8, 6
	cfg.Day = 60 * sim.Second
	cfg.OracleLocations = 6 // scaled version of the paper's 12 locations
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cov := RoamingOracleCoverage(out)
	// Paper: 95% of the laptop's link-level events observed; related
	// studies report 80–97%.
	if cov < 0.8 {
		t.Errorf("roaming oracle coverage = %.3f, want ≥ 0.8", cov)
	}
	// Disabled case sentinel.
	plain, err := scenario.Run(scenario.Default())
	if err != nil {
		t.Fatal(err)
	}
	if RoamingOracleCoverage(plain) != -1 {
		t.Error("sentinel for missing oracle not returned")
	}
}

func TestDiagnose(t *testing.T) {
	setup(t)
	diags := shared.diags
	if len(diags) < 5 {
		t.Fatalf("only %d stations diagnosed", len(diags))
	}
	// Sorted by airtime, descending.
	for i := 1; i < len(diags); i++ {
		if diags[i].AirtimeUS > diags[i-1].AirtimeUS {
			t.Fatal("not sorted by airtime")
		}
	}
	var share float64
	var anyFindings bool
	for _, d := range diags {
		share += d.AirtimeShare
		if d.AirtimeShare < 0 || d.AirtimeShare > 1 {
			t.Fatalf("share out of range: %+v", d)
		}
		if d.InterferenceExposure < 0 || d.InterferenceExposure > 1 {
			t.Fatalf("exposure out of range: %+v", d)
		}
		if len(d.Findings) > 0 {
			anyFindings = true
		}
	}
	if share < 0.9 || share > 1.01 {
		t.Errorf("airtime shares sum to %.3f, want ≈1", share)
	}
	if !anyFindings {
		t.Error("no findings at all in a building with lossy links and protection overhead")
	}
}
