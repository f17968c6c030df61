package analysis

import (
	"fmt"

	"repro/internal/dot80211"
)

// Section is the machine-readable form of one report: the same numbers the
// text sections print, as JSON. cmd/jiganalyze -json emits one Section per
// selected report, and jigd's /reports/<pass> endpoint wraps the identical
// encoding around the latest closed window.
type Section struct {
	Pass string `json:"pass"`
	// Summary carries the report's aggregate scalars, when it has any
	// beyond the repeating unit.
	Summary any `json:"summary,omitempty"`
	// Rows is the report's repeating unit (stations, slots, pairs, …);
	// single-struct reports appear as their own only row. Always a JSON
	// array, never null.
	Rows any `json:"rows"`
}

// coverageSummary is CoverageReport minus the per-station rows.
type coverageSummary struct {
	Overall       float64 `json:"overall"`
	TotalWired    int     `json:"total_wired"`
	ClientsAt100  float64 `json:"clients_at_100"`
	APsAt100      float64 `json:"aps_at_100"`
	ClientsOver95 float64 `json:"clients_over_95"`
	APsOver95     float64 `json:"aps_over_95"`
	ClientCov     float64 `json:"client_coverage"`
	APCov         float64 `json:"ap_coverage"`
}

// interferencePair is one (s,r) row with the derived Pi/X the text section
// prints (PairStats carries only the raw counts; the probabilities are
// methods).
type interferencePair struct {
	PairStats
	Pi float64 `json:"pi"`
	X  float64 `json:"x"`
}

// interferenceSummary is InterferenceReport minus the pair rows, with the
// Fig. 9 CDF reduced to the percentiles the text section prints.
type interferenceSummary struct {
	PairsConsidered          int     `json:"pairs_considered"`
	FractionWithInterference float64 `json:"fraction_with_interference"`
	NegativePiFraction       float64 `json:"negative_pi_fraction"`
	AvgBackgroundLoss        float64 `json:"avg_background_loss"`
	SenderSplitAP            float64 `json:"sender_split_ap"`
	XP50                     float64 `json:"x_p50"`
	XP90                     float64 `json:"x_p90"`
	XP95                     float64 `json:"x_p95"`
}

// protectionSummary is ProtectionReport minus the slot rows.
type protectionSummary struct {
	PeakAffectedShare float64 `json:"peak_affected_share"`
	PotentialSpeedup  float64 `json:"potential_speedup"`
}

// roamingSummary is RoamingReport minus the event rows.
type roamingSummary struct {
	PerClient     map[dot80211.MAC]int `json:"per_client"`
	MeanLatencyUS float64              `json:"mean_latency_us"`
	DataOnly      int                  `json:"data_only"`
}

// SectionJSON converts a finalized report into its Section encoding. rep
// must be the value returned by the named pass's Finalize; any other type
// is an error, not a panic, so callers can surface registry/report drift
// cleanly.
func SectionJSON(name string, rep Report) (Section, error) {
	sec := Section{Pass: name}
	bad := func() (Section, error) {
		return sec, fmt.Errorf("analysis: %s report has unexpected type %T", name, rep)
	}
	switch name {
	case "summary":
		s, ok := rep.(*TraceSummary)
		if !ok {
			return bad()
		}
		sec.Rows = []*TraceSummary{s}
	case "coverage":
		c, ok := rep.(*CoverageReport)
		if !ok {
			return bad()
		}
		sec.Summary = coverageSummary{
			Overall: c.Overall, TotalWired: c.TotalWired,
			ClientsAt100: c.ClientsAt100, APsAt100: c.APsAt100,
			ClientsOver95: c.ClientsOver95, APsOver95: c.APsOver95,
			ClientCov: c.ClientCoverage, APCov: c.APCoverage,
		}
		rows := c.Stations
		if rows == nil {
			rows = []StationCoverage{}
		}
		sec.Rows = rows
	case "timeseries":
		slots, ok := rep.([]ActivitySlot)
		if !ok {
			return bad()
		}
		sec.Summary = struct {
			BroadcastAirtimeShare float64 `json:"broadcast_airtime_share"`
		}{BroadcastAirtimeShare(slots)}
		if slots == nil {
			slots = []ActivitySlot{}
		}
		sec.Rows = slots
	case "interference":
		r, ok := rep.(*InterferenceReport)
		if !ok {
			return bad()
		}
		sec.Summary = interferenceSummary{
			PairsConsidered:          r.PairsConsidered,
			FractionWithInterference: r.FractionWithInterference,
			NegativePiFraction:       r.NegativePiFraction,
			AvgBackgroundLoss:        r.AvgBackgroundLoss,
			SenderSplitAP:            r.SenderSplitAP,
			XP50:                     r.XPercentile(0.5),
			XP90:                     r.XPercentile(0.9),
			XP95:                     r.XPercentile(0.95),
		}
		rows := make([]interferencePair, 0, len(r.Pairs))
		for i := range r.Pairs {
			p := &r.Pairs[i]
			rows = append(rows, interferencePair{PairStats: *p, Pi: p.Pi(), X: p.X()})
		}
		sec.Rows = rows
	case "protection":
		r, ok := rep.(*ProtectionReport)
		if !ok {
			return bad()
		}
		sec.Summary = protectionSummary{
			PeakAffectedShare: r.PeakAffectedShare,
			PotentialSpeedup:  r.PotentialSpeedup,
		}
		rows := r.Slots
		if rows == nil {
			rows = []ProtectionSlot{}
		}
		sec.Rows = rows
	case "diagnose":
		d, ok := rep.([]StationDiagnosis)
		if !ok {
			return bad()
		}
		if d == nil {
			d = []StationDiagnosis{}
		}
		sec.Rows = d
	case "tcploss":
		r, ok := rep.(*TCPLossReport)
		if !ok {
			return bad()
		}
		sec.Rows = []*TCPLossReport{r}
	case "roam":
		r, ok := rep.(*RoamingReport)
		if !ok {
			return bad()
		}
		per := r.PerClient
		if per == nil {
			per = map[dot80211.MAC]int{}
		}
		sec.Summary = roamingSummary{
			PerClient: per, MeanLatencyUS: r.MeanLatencyUS, DataOnly: r.DataOnly,
		}
		rows := r.Events
		if rows == nil {
			rows = []HandoffEvent{}
		}
		sec.Rows = rows
	case "viz":
		s, ok := rep.(string)
		if !ok {
			return bad()
		}
		sec.Rows = []string{s}
	default:
		return sec, fmt.Errorf("analysis: no JSON encoding for pass %q", name)
	}
	return sec, nil
}
