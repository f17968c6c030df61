package cc

// cubicCC implements TCP CUBIC (RFC 8312 shape): after a loss at window
// W_max the window follows
//
//	W(t) = C·(t − K)³ + W_max,   K = ∛(W_max·β/C)
//
// (windows in segments, t in seconds since the epoch started), which grows
// steeply away from W_max, plateaus around it, then probes convexly past
// it.
type cubicCC struct {
	aimdShared
	mss      int64
	cwnd     float64 // bytes
	ssthresh float64 // bytes
	wMaxSegs float64 // window at last loss, segments
	// epochStartUS anchors t in W(t); zero means "no epoch yet" (set on
	// the first congestion-avoidance ACK after a loss).
	epochStartUS int64
	kSec         float64
}

// CUBIC constants (RFC 8312): β is the multiplicative-decrease fraction
// removed at a loss (window keeps 1−β of itself), C the growth scale.
const (
	cubicBeta = 0.3
	cubicC    = 0.4
)

// NewCubic returns a CUBIC controller.
func NewCubic(mssBytes int) Controller {
	mss := int64(mssBytes)
	return &cubicCC{
		mss:      mss,
		cwnd:     float64(renoInitialWindow) * float64(mss),
		ssthresh: float64(maxCwndSegments) * float64(mss),
	}
}

func (c *cubicCC) OnSend(int64, int64) {}

func (c *cubicCC) OnAck(ackedBytes int64, nowUS int64) {
	if ackedBytes <= 0 {
		return
	}
	max := float64(maxCwndSegments) * float64(c.mss)
	if c.cwnd < c.ssthresh {
		grow := float64(ackedBytes)
		if grow > float64(c.mss) {
			grow = float64(c.mss)
		}
		c.cwnd += grow
		if c.cwnd > max {
			c.cwnd = max
		}
		return
	}
	if c.epochStartUS == 0 {
		c.epochStartUS = nowUS
		if c.wMaxSegs == 0 {
			c.wMaxSegs = c.cwnd / float64(c.mss)
		}
		c.kSec = cbrt(c.wMaxSegs * cubicBeta / cubicC)
	}
	t := float64(nowUS-c.epochStartUS) / 1e6
	targetSegs := cubicC*(t-c.kSec)*(t-c.kSec)*(t-c.kSec) + c.wMaxSegs
	target := targetSegs * float64(c.mss)
	if target > c.cwnd {
		// Close a fraction of the gap per ACK; with ~cwnd/MSS ACKs per
		// RTT this tracks W(t) closely without overshooting on bursts.
		c.cwnd += (target - c.cwnd) * float64(c.mss) / c.cwnd
	} else {
		// Below the curve's plateau: minimal reliability growth.
		c.cwnd += 0.01 * float64(c.mss) * float64(c.mss) / c.cwnd
	}
	if c.cwnd > max {
		c.cwnd = max
	}
}

func (c *cubicCC) OnLoss(nowUS int64, timeout bool) {
	if !timeout && c.inBlackout(nowUS) {
		return
	}
	c.wMaxSegs = c.cwnd / float64(c.mss)
	reduced := c.cwnd * (1 - cubicBeta)
	if min := float64(renoMinSSThresh) * float64(c.mss); reduced < min {
		reduced = min
	}
	c.ssthresh = reduced
	if timeout {
		c.cwnd = float64(c.mss)
	} else {
		c.cwnd = reduced
	}
	c.epochStartUS = 0
	c.startBlackout(nowUS)
}

func (c *cubicCC) CwndSegments() int      { return clampSegments(c.cwnd, c.mss) }
func (c *cubicCC) PacingGate(int64) int64 { return 0 }
func (c *cubicCC) Name() string           { return Cubic }
