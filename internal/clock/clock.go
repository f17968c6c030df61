// Package clock models the radio monitor clocks whose imperfections Jigsaw's
// synchronization algorithm must overcome, and provides the skew/drift
// estimators the algorithm uses to overcome them.
//
// Each monitor in the deployment timestamps received frames with a 1 µs
// resolution local clock (the Atheros RX timestamp facility, §3.3). Local
// clocks differ from true time by an offset, run fast or slow by a skew
// measured in parts-per-million, and the skew itself wanders slowly (drift).
// The 802.11 standard mandates ≤100 ppm accuracy; the paper observes Atheros
// hardware doing considerably better. Jigsaw compensates for skew per radio
// and predicts drift with an exponentially weighted moving average (§4.2).
package clock

import "math"

// Clock converts true simulation time to a monitor's local timestamp. True
// time is int64 nanoseconds from simulation start; local timestamps are
// int64 microseconds as produced by the capture hardware.
//
// The local reading at true time t is:
//
//	local(t) = (t + offset) * (1 + skew(t)) quantized to 1 µs
//
// where skew(t) = skew0 + driftRate * t wanders linearly (a first-order
// model of oscillator temperature drift, sufficient because Jigsaw's EWMA
// tracks slow drift of any shape over the short horizons that matter).
type Clock struct {
	OffsetNS  int64   // initial offset from true time, nanoseconds
	SkewPPM   float64 // initial frequency error, parts per million
	DriftPPMH float64 // skew change rate, ppm per hour
}

// LocalUS returns the local 1 µs-quantized timestamp for true time tNS.
// Accumulated error is the integral of the instantaneous skew, so the
// effective skew over [0,t] is SkewPPM + DriftPPMH·t/2.
func (c *Clock) LocalUS(tNS int64) int64 {
	local := float64(tNS+c.OffsetNS) * (1 + c.meanSkewOver(tNS)*1e-6)
	return int64(math.Floor(local / 1e3)) // ns → µs, quantize down like a counter
}

// meanSkewOver returns the average skew over [0, tNS] (the integral form
// that governs accumulated timestamp error).
func (c *Clock) meanSkewOver(tNS int64) float64 {
	hours := float64(tNS) / float64(3600e9)
	return c.SkewPPM + c.DriftPPMH*hours/2
}

// TrueNSApprox inverts LocalUS approximately (ignoring quantization): the
// true time at which the clock would read localUS. Used only by tests and
// diagnostics; the Jigsaw algorithms never get to see true time.
func (c *Clock) TrueNSApprox(localUS int64) int64 {
	// Invert local = (t + off)(1 + s̄(t)e-6) iteratively; skew changes so
	// slowly that a few iterations converge well below 1 µs.
	t := localUS * 1e3
	for i := 0; i < 3; i++ {
		s := c.meanSkewOver(t)
		t = int64(float64(localUS*1e3)/(1+s*1e-6)) - c.OffsetNS
	}
	return t
}

// SkewEstimator tracks the skew of one radio's clock relative to universal
// time using an exponentially weighted moving average of observed
// (local-delta / universal-delta) ratios, and predicts the local-time
// correction to apply at a future universal time. This is the "pro-active
// adjustment" of §4.2: between resynchronization opportunities a radio's
// placement in universal time is extrapolated using its predicted skew.
//
// The estimator also maintains a second EWMA over skew *changes* to predict
// drift, which the paper found necessary at large radio counts.
type SkewEstimator struct {
	alpha    float64 // EWMA gain for skew samples
	beta     float64 // EWMA gain for drift samples
	disabled bool    // ablation switch: Update becomes a no-op

	initialized bool
	lastLocalUS int64 // local timestamp at last update
	lastUnivUS  int64 // universal timestamp at last update

	skewPPM  float64 // smoothed skew estimate
	driftPPS float64 // smoothed d(skew)/dt, ppm per second
	samples  int

	// Drift is measured between widely spaced checkpoints of the smoothed
	// skew: 1 µs timestamp quantization over a ~100 ms sample interval is
	// ±10 ppm of noise, so per-sample differencing is hopeless. Comparing
	// smoothed skew across ≥10 s baselines divides that noise by 100.
	ckptUnivUS int64
	ckptSkew   float64
	haveCkpt   bool
}

// driftBaselineUS is the minimum universal-time spacing between drift
// checkpoints.
const driftBaselineUS = 10_000_000

// NewSkewEstimator returns an estimator with the given EWMA gains. Gains in
// (0,1]; larger adapts faster. Zero values select defaults tuned for the
// beacon-dominated resync cadence (~100 ms between samples, §4.2).
func NewSkewEstimator(alpha, beta float64) *SkewEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.05
	}
	if beta <= 0 || beta > 1 {
		beta = 0.02
	}
	return &SkewEstimator{alpha: alpha, beta: beta}
}

// Update feeds one synchronization observation: the radio's local timestamp
// for a reference frame and the universal timestamp assigned to that frame's
// jframe. Returns the skew estimate in ppm after the update.
func (e *SkewEstimator) Update(localUS, univUS int64) float64 {
	if e.disabled {
		return 0
	}
	if !e.initialized {
		e.initialized = true
		e.lastLocalUS, e.lastUnivUS = localUS, univUS
		return e.skewPPM
	}
	dLocal := localUS - e.lastLocalUS
	dUniv := univUS - e.lastUnivUS
	if dUniv <= 0 {
		// Out-of-order or duplicate observation; ignore.
		return e.skewPPM
	}
	sample := (float64(dLocal)/float64(dUniv) - 1) * 1e6 // instantaneous ppm
	// Clip absurd samples (e.g. a mis-unified frame): the standard caps
	// real clocks at 100 ppm; allow 10x headroom.
	if sample > 1000 {
		sample = 1000
	} else if sample < -1000 {
		sample = -1000
	}
	// Warmup: a running mean converges much faster than the EWMA while the
	// estimate is cold; after warmup the EWMA tracks slow change.
	const warmup = 10
	if e.samples == 0 {
		e.skewPPM = sample
	} else if e.samples < warmup {
		n := float64(e.samples)
		e.skewPPM = (e.skewPPM*n + sample) / (n + 1)
	} else {
		e.skewPPM = (1-e.alpha)*e.skewPPM + e.alpha*sample
	}
	e.samples++
	e.lastLocalUS, e.lastUnivUS = localUS, univUS

	// Drift from checkpointed smoothed skew over long baselines.
	if !e.haveCkpt {
		e.ckptUnivUS, e.ckptSkew, e.haveCkpt = univUS, e.skewPPM, true
	} else if dt := univUS - e.ckptUnivUS; dt >= driftBaselineUS {
		driftSample := (e.skewPPM - e.ckptSkew) / (float64(dt) / 1e6)
		if e.driftPPS == 0 {
			e.driftPPS = driftSample
		} else {
			e.driftPPS = (1-e.beta)*e.driftPPS + e.beta*driftSample
		}
		e.ckptUnivUS, e.ckptSkew = univUS, e.skewPPM
	}
	return e.skewPPM
}

// SkewPPM returns the current smoothed skew estimate in ppm.
func (e *SkewEstimator) SkewPPM() float64 { return e.skewPPM }

// Samples returns the number of observations consumed.
func (e *SkewEstimator) Samples() int { return e.samples }

// PredictedSkewPPM extrapolates the skew to a universal time atUnivUS using
// the drift estimate.
func (e *SkewEstimator) PredictedSkewPPM(atUnivUS int64) float64 {
	if e.samples < 2 {
		return e.skewPPM
	}
	dtSec := float64(atUnivUS-e.lastUnivUS) / 1e6
	if dtSec < 0 {
		dtSec = 0
	}
	return e.skewPPM + e.driftPPS*dtSec
}

// CorrectionUS converts an elapsed local interval (µs since the last
// synchronization point) into the universal-time correction to subtract:
// a clock running fast by s ppm accumulates s µs of error per second.
func (e *SkewEstimator) CorrectionUS(elapsedLocalUS int64, atUnivUS int64) float64 {
	s := e.PredictedSkewPPM(atUnivUS)
	return float64(elapsedLocalUS) * s * 1e-6
}

// OffsetTracker combines an offset with a SkewEstimator to map a radio's
// local timestamps into universal time. This is the per-radio state the
// unifier maintains: Ti (the offset, continuously corrected at each
// resynchronization) plus the skew/drift model.
type OffsetTracker struct {
	offsetUS   float64 // universal = local + offset (at anchor)
	anchorUS   int64   // local time of the last resync
	lastUnivUS int64   // universal time of the last resync
	est        *SkewEstimator
	resyncs    int

	// Fast-path snapshot, refreshed once per resync rather than evaluated
	// per record: whenever the predicted skew cannot vary between resyncs
	// (estimator disabled, still warming up, or drift estimate exactly
	// zero), the per-record mapping is a single multiply-add on fastSkew
	// with no estimator calls. The snapshot replays the exact float
	// operations of the general path, so results are bit-identical.
	fastSkew float64
	fastPath bool
}

// NewOffsetTracker starts a tracker with the bootstrap offset Ti (µs).
func NewOffsetTracker(offsetUS int64) *OffsetTracker {
	t := &OffsetTracker{offsetUS: float64(offsetUS), est: NewSkewEstimator(0, 0)}
	t.refreshFast()
	return t
}

// refreshFast recomputes the per-resync fast-path snapshot. PredictedSkewPPM
// is constant between resyncs exactly when the estimator is cold (samples <
// 2 returns the raw skew) or its drift term is zero (skew + 0·dt == skew);
// in those states ToUniversal can skip the estimator entirely.
func (t *OffsetTracker) refreshFast() {
	e := t.est
	t.fastPath = e.disabled || e.samples < 2 || e.driftPPS == 0
	t.fastSkew = e.skewPPM
}

// ToUniversal maps a local timestamp to universal time, applying the offset
// and skew-predicted correction since the last resync.
func (t *OffsetTracker) ToUniversal(localUS int64) int64 {
	univ0 := float64(localUS) + t.offsetUS
	if t.fastPath {
		// Same operations, same association as CorrectionUS with a
		// constant predicted skew: (elapsed · s) · 1e-6.
		corr := float64(localUS-t.anchorUS) * t.fastSkew * 1e-6
		return int64(univ0 - corr + 0.5)
	}
	corr := t.est.CorrectionUS(localUS-t.anchorUS, int64(univ0))
	return int64(univ0 - corr + 0.5)
}

// Resync records that a frame with local timestamp localUS was unified into
// a jframe at universal time univUS, snapping the offset so the mapping is
// exact at that point and feeding the skew estimator.
func (t *OffsetTracker) Resync(localUS, univUS int64) {
	t.est.Update(localUS, univUS)
	t.offsetUS = float64(univUS - localUS)
	t.anchorUS = localUS
	t.lastUnivUS = univUS
	t.resyncs++
	t.refreshFast()
}

// LastResyncUnivUS returns the universal time of the latest resync (0 if
// none).
func (t *OffsetTracker) LastResyncUnivUS() int64 { return t.lastUnivUS }

// OffsetUS returns the current local→universal offset in µs.
func (t *OffsetTracker) OffsetUS() int64 { return int64(t.offsetUS) }

// Resyncs returns how many resynchronizations have been applied.
func (t *OffsetTracker) Resyncs() int { return t.resyncs }

// SkewPPM exposes the tracked skew estimate.
func (t *OffsetTracker) SkewPPM() float64 { return t.est.SkewPPM() }

// SetSkewCompensation allows callers to disable skew/drift compensation
// (for the paper's ablation: at scale, synchronization is lost quickly
// without it). When disabled the tracker reduces to pure offset snapping.
func (t *OffsetTracker) SetSkewCompensation(enabled bool) {
	if !enabled {
		e := NewSkewEstimator(0, 0)
		e.disabled = true
		t.est = e
		t.refreshFast()
	}
}
