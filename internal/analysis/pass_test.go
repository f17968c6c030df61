package analysis

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/scenario"
	"repro/internal/transport"
	"repro/internal/unify"
)

// TestXPercentileNearestRank is the regression for the nearest-rank
// off-by-one: int(p·n) selects one rank too high — p=0.5 of a 2-element
// CDF must return the lower element (rank ⌈p·n⌉ = 1), not the max.
func TestXPercentileNearestRank(t *testing.T) {
	cases := []struct {
		cdf  []float64
		p    float64
		want float64
	}{
		{[]float64{0.1, 0.9}, 0.5, 0.1}, // the motivating case: was 0.9
		{[]float64{0.1, 0.9}, 0.25, 0.1},
		{[]float64{0.1, 0.9}, 0.75, 0.9},
		{[]float64{0.1, 0.9}, 1.0, 0.9},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.25, 1},
		{[]float64{1, 2, 3, 4}, 0.9, 4},  // ⌈3.6⌉ = rank 4
		{[]float64{1, 2, 3, 4}, 0.75, 3}, // exact boundary: rank 3
		{[]float64{1, 2, 3, 4}, 0.0, 1},
		{[]float64{7}, 0.5, 7},
		{nil, 0.5, 0},
	}
	for _, tc := range cases {
		r := &InterferenceReport{XCDF: tc.cdf}
		if got := r.XPercentile(tc.p); got != tc.want {
			t.Errorf("XPercentile(%v) over %v = %v, want %v", tc.p, tc.cdf, got, tc.want)
		}
	}
}

// TestNewPassesSelector pins the registry's selector semantics.
func TestNewPassesSelector(t *testing.T) {
	// "all" without ground truth: every non-optional, truth-free pass, in
	// registry order.
	passes, err := NewPasses("all", PassParams{SlotUS: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range passes {
		names = append(names, p.Name())
	}
	want := []string{"summary", "timeseries", "interference", "protection", "diagnose", "tcploss", "roam"}
	if len(names) != len(want) {
		t.Fatalf("all (no truth) = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("all (no truth) = %v, want %v", names, want)
		}
	}

	if _, err := NewPasses("nosuch", PassParams{}); err == nil {
		t.Error("unknown pass name did not error")
	}
	if _, err := NewPasses("coverage", PassParams{}); err == nil {
		t.Error("truth-needing pass without ground truth did not error")
	}
	one, err := NewPasses("diagnose,summary", PassParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 2 || one[0].Name() != "summary" || one[1].Name() != "diagnose" {
		t.Errorf("named selection = %v, want registry order [summary diagnose]", one)
	}
}

// TestOneTransportAnalyzerPerSet checks that a pass set holds one TCP
// view: summary and tcploss share one transport analyzer that exactly one
// of them feeds, so its counters equal those of an analyzer fed every
// exchange once, and each pass reports what it reports when built alone.
func TestOneTransportAnalyzerPerSet(t *testing.T) {
	out, err := scenario.Run(scenario.Default())
	if err != nil {
		t.Fatal(err)
	}
	apSet := scenario.APSet(out.APs)
	params := PassParams{
		SlotUS: out.Cfg.HourDur().US64(),
		IsAP:   func(m dot80211.MAC) bool { return apSet[m] },
	}
	set, err := NewPasses("all", params)
	if err != nil {
		t.Fatal(err)
	}
	lone, err := NewPasses("tcploss", params)
	if err != nil {
		t.Fatal(err)
	}
	var sum *SummaryPass
	var loss *TCPLossPass
	for _, p := range set {
		switch p := p.(type) {
		case *SummaryPass:
			sum = p
		case *TCPLossPass:
			loss = p
		}
	}
	if sum == nil || loss == nil {
		t.Fatalf("all set lacks summary or tcploss: %v", set)
	}
	if sum.ta != loss.ta {
		t.Fatal("summary and tcploss of one set hold different transport analyzers")
	}
	loneLoss := lone[0].(*TCPLossPass)
	if loneLoss.ta == sum.ta {
		t.Fatal("a lone tcploss set shares another set's analyzer")
	}
	aloneSum, aloneLoss := NewSummaryPass(), NewTCPLossPass(5)

	fresh := transport.NewAnalyzer()
	cfg := core.DefaultConfig()
	cfg.Passes = CorePasses(append(set, loneLoss, aloneSum, aloneLoss))
	if _, err := core.RunFrom(out.TraceSet(), out.ClockGroups, cfg, &core.Sink{OnExchange: fresh.AddExchange}); err != nil {
		t.Fatal(err)
	}
	if fresh.Stats.TCPSegments == 0 {
		t.Fatal("the capture carries no TCP segment")
	}
	if sum.ta.Stats != fresh.Stats {
		t.Errorf("shared analyzer stats %+v, want %+v (one feed per exchange)", sum.ta.Stats, fresh.Stats)
	}
	if loneLoss.ta.Stats != fresh.Stats {
		t.Errorf("lone tcploss analyzer stats %+v, want %+v", loneLoss.ta.Stats, fresh.Stats)
	}
	for _, c := range []struct{ inSet, alone Pass }{{sum, aloneSum}, {loss, aloneLoss}} {
		got, err := SectionJSON(c.inSet.Name(), c.inSet.Finalize())
		if err != nil {
			t.Fatal(err)
		}
		want, err := SectionJSON(c.alone.Name(), c.alone.Finalize())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s in a set reports %+v, alone %+v", c.inSet.Name(), got, want)
		}
	}
}

// TestExchangeDeferral pins the deferral rule: an exchange is processed
// only once the jframe frontier has reached the latest end of its data
// attempts — which can lie past its CloseUS — exchanges leave in arrival
// order, and drain processes the rest.
func TestExchangeDeferral(t *testing.T) {
	data := func(us int64) *unify.JFrame {
		return &unify.JFrame{UnivUS: us, Valid: true, WireLen: 1500, Rate: dot80211.Rate1Mbps}
	}
	var d exchangeDeferral
	var got []int64
	record := func(ex *llc.Exchange) { got = append(got, ex.CloseUS) }

	// A unicast exchange closed on its ACK at 400 µs, while its data frame,
	// 12 ms of airtime at 1 Mb/s, is estimated to end long after.
	late := data(100)
	if late.EndUS() <= 400 {
		t.Fatalf("data attempt ends at %d, want past the CloseUS", late.EndUS())
	}
	d.push(&llc.Exchange{CloseUS: 400, Attempts: []*llc.Attempt{{Data: late}}})
	d.push(&llc.Exchange{CloseUS: 500}) // no data attempt: waits only for its turn
	d.noteJFrame(400)
	d.flush(record)
	d.noteJFrame(late.EndUS() - 1)
	d.flush(record)
	if len(got) != 0 {
		t.Fatalf("flushed %v before the frontier reached the data attempt's end %d", got, late.EndUS())
	}
	d.noteJFrame(late.EndUS())
	d.flush(record)
	if len(got) != 2 || got[0] != 400 || got[1] != 500 {
		t.Fatalf("at frontier %d got %v, want [400 500]", late.EndUS(), got)
	}

	// Retransmissions: the latest attempt end counts, not the first.
	first, retry := data(20_000), data(40_000)
	d.push(&llc.Exchange{CloseUS: 41_000, Attempts: []*llc.Attempt{{Data: first}, {}, {Data: retry}}})
	d.push(&llc.Exchange{CloseUS: 42_000})
	d.noteJFrame(first.EndUS())
	d.flush(record)
	if len(got) != 2 {
		t.Fatalf("flushed %v once past the first attempt's end only", got[2:])
	}
	d.drain(record)
	if len(got) != 4 || got[2] != 41_000 || got[3] != 42_000 {
		t.Fatalf("drain got %v, want [400 500 41000 42000]", got)
	}
}
