package analysis

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/dot80211"
	"repro/internal/llc"
	"repro/internal/unify"
)

// StationDiagnosis is the per-station performance report behind the paper's
// closing questions (§8): "Why is the network slow?" and "How should it be
// fixed?". It aggregates the cross-layer evidence the unified trace makes
// available for one transmitter.
type StationDiagnosis struct {
	MAC       dot80211.MAC
	Exchanges int
	Delivered int
	Failed    int
	// RetryRate is retransmission attempts per unicast exchange.
	RetryRate float64
	// MeanRateMbps is the airtime-weighted mean data rate.
	MeanRateMbps float64
	// AirtimeUS is the station's total transmit airtime; AirtimeShare is
	// its share of all airtime in the trace.
	AirtimeUS    int64
	AirtimeShare float64
	// ProtectionUS is airtime spent on CTS-to-self overhead.
	ProtectionUS int64
	// InterferenceExposure is the fraction of the station's data attempts
	// that overlapped another transmission.
	InterferenceExposure float64
	// Findings are human-readable diagnoses derived from the numbers.
	Findings []string
}

// Diagnosis thresholds.
const (
	diagRetryRate    = 0.30 // retries per exchange considered "lossy"
	diagLowRateMbps  = 12.0 // a g-capable station stuck below this is stuck
	diagProtShare    = 0.20 // protection overhead share of own airtime
	diagAirtimeShare = 0.25 // single station consuming this much channel
	diagInterference = 0.25
)

// diagAcc is one station's accumulator.
type diagAcc struct {
	d          StationDiagnosis
	rateWeight float64
	attempts   int
	overlapped int
}

// DiagnosisPass builds the §8 per-station reports incrementally: airtime,
// rates and protection overhead from the jframe stream (which also feeds
// the sliding overlap window), delivery/retry/interference-exposure
// evidence from the exchange stream, deferred like the interference pass
// so overlap queries see a complete window. State is O(stations + ~1 s window).
type DiagnosisPass struct {
	named
	accs     map[dot80211.MAC]*diagAcc
	idx      overlapIndex
	pending  exchangeDeferral
	totalAir int64
}

// NewDiagnosisPass builds the §8 diagnosis pass.
func NewDiagnosisPass() *DiagnosisPass {
	return &DiagnosisPass{
		named: "diagnose",
		accs:  make(map[dot80211.MAC]*diagAcc),
	}
}

func (p *DiagnosisPass) get(m dot80211.MAC) *diagAcc {
	a := p.accs[m]
	if a == nil {
		a = &diagAcc{d: StationDiagnosis{MAC: m}}
		p.accs[m] = a
	}
	return a
}

// ObserveJFrame implements Pass: airtime and rate accounting plus the
// overlap window (valid frames only, as the legacy index built).
func (p *DiagnosisPass) ObserveJFrame(j *unify.JFrame) {
	p.pending.noteJFrame(j.UnivUS)
	defer p.pending.flush(p.process)
	if !j.Valid {
		return
	}
	s, e := frameInterval(j)
	p.idx.add(j.Channel, s, e)
	tx := j.Frame.Transmitter()
	air := j.AirtimeUS()
	p.totalAir += air
	if j.Frame.IsCTS() {
		// CTS-to-self overhead accrues to the protected station
		// (its own MAC rides in Addr1).
		a := p.get(j.Frame.Addr1)
		a.d.ProtectionUS += air
		a.d.AirtimeUS += air
		return
	}
	if tx.IsZero() {
		return
	}
	a := p.get(tx)
	a.d.AirtimeUS += air
	if j.Frame.IsData() {
		a.d.MeanRateMbps += j.Rate.Mbps() * float64(air)
		a.rateWeight += float64(air)
	}
}

// ObserveExchange implements Pass.
func (p *DiagnosisPass) ObserveExchange(ex *llc.Exchange) {
	p.pending.push(ex)
	p.pending.flush(p.process)
}

func (p *DiagnosisPass) process(ex *llc.Exchange) {
	p.idx.retire(ex.CloseUS)
	if ex.Transmitter.IsZero() {
		return
	}
	a := p.get(ex.Transmitter)
	a.d.Exchanges++
	switch ex.Delivery {
	case llc.DeliveryObserved, llc.DeliveryInferred:
		a.d.Delivered++
	case llc.DeliveryFailed:
		a.d.Failed++
	}
	if !ex.Broadcast {
		a.d.RetryRate += float64(ex.Retransmissions())
	}
	for _, at := range ex.Attempts {
		if at.Data == nil || !at.Data.Frame.IsUnicastData() {
			continue
		}
		a.attempts++
		if p.idx.overlapping(at.Data.Channel, at.Data.UnivUS, at.Data.EndUS()) {
			a.overlapped++
		}
	}
}

// Finalize implements Pass, returning []StationDiagnosis sorted by airtime
// (the biggest channel consumers first).
func (p *DiagnosisPass) Finalize() Report {
	p.pending.drain(p.process)
	out := make([]StationDiagnosis, 0, len(p.accs))
	for _, a := range p.accs {
		d := a.d
		if d.Exchanges > 0 {
			d.RetryRate /= float64(d.Exchanges)
		}
		if a.rateWeight > 0 {
			d.MeanRateMbps /= a.rateWeight
		}
		if p.totalAir > 0 {
			d.AirtimeShare = float64(d.AirtimeUS) / float64(p.totalAir)
		}
		if a.attempts > 0 {
			d.InterferenceExposure = float64(a.overlapped) / float64(a.attempts)
		}
		d.Findings = findings(&d)
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AirtimeUS != out[j].AirtimeUS {
			return out[i].AirtimeUS > out[j].AirtimeUS
		}
		// Total order: the slice was fed from map iteration, so airtime
		// ties (idle stations) need a deterministic break.
		return bytes.Compare(out[i].MAC[:], out[j].MAC[:]) < 0
	})
	return out
}

// findings turns the aggregates into actionable diagnoses.
func findings(d *StationDiagnosis) []string {
	var f []string
	if d.RetryRate > diagRetryRate {
		f = append(f, fmt.Sprintf("lossy link: %.2f retries per exchange", d.RetryRate))
	}
	if d.MeanRateMbps > 0 && d.MeanRateMbps < diagLowRateMbps {
		f = append(f, fmt.Sprintf("low data rate: averaging %.1f Mbps", d.MeanRateMbps))
	}
	if d.AirtimeUS > 0 && float64(d.ProtectionUS) > diagProtShare*float64(d.AirtimeUS) {
		f = append(f, fmt.Sprintf("protection overhead: %.0f%% of airtime spent on CTS-to-self",
			100*float64(d.ProtectionUS)/float64(d.AirtimeUS)))
	}
	if d.AirtimeShare > diagAirtimeShare {
		f = append(f, fmt.Sprintf("airtime hog: %.0f%% of the channel", 100*d.AirtimeShare))
	}
	if d.InterferenceExposure > diagInterference {
		f = append(f, fmt.Sprintf("interference exposure: %.0f%% of attempts overlapped",
			100*d.InterferenceExposure))
	}
	if d.Failed > 0 && d.Exchanges > 0 && float64(d.Failed) > 0.05*float64(d.Exchanges) {
		f = append(f, fmt.Sprintf("abandoned exchanges: %d of %d", d.Failed, d.Exchanges))
	}
	return f
}
