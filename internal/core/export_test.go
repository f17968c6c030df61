package core

import (
	"repro/internal/llc"
	"repro/internal/unify"
)

// SetSlabSize forces the pipelined driver's slab size for the external
// parity suites and returns the function that restores it.
func SetSlabSize(n int) (restore func()) {
	prev := slabSize
	slabSize = n
	return func() { slabSize = prev }
}

// SlabBalance reports slabs taken from the pools and not yet returned.
func SlabBalance() int64 { return slabBalance.Load() }

// Collection is the parity suites' view of a run's products as slices: a
// Sink that retains every jframe and exchange it is shown, in delivery
// order — jframes in emission order, exchanges in canonical close order.
// Release drops the references once the test is done with them.
type Collection struct {
	JFrames   []*unify.JFrame
	Exchanges []*llc.Exchange
}

// Sink returns the callbacks that fill the collection.
func (c *Collection) Sink() *Sink {
	return &Sink{
		OnJFrame: func(j *unify.JFrame) {
			j.Retain()
			c.JFrames = append(c.JFrames, j)
		},
		OnExchange: func(ex *llc.Exchange) {
			ex.Retain()
			c.Exchanges = append(c.Exchanges, ex)
		},
	}
}

// Release drops every reference the collection took.
func (c *Collection) Release() {
	for _, j := range c.JFrames {
		j.Release()
	}
	for _, ex := range c.Exchanges {
		ex.Release()
	}
	c.JFrames, c.Exchanges = nil, nil
}

// DriveSlices is the tests' reference driver: it replays collected
// jframe/exchange slices through the passes in the streaming contract's
// order — exchanges in canonical close order, each preceded by every jframe
// with UnivUS <= its CloseUS. This is exactly the interleaving the live
// pipeline guarantees, so a pass fed either way must produce the identical
// report.
func DriveSlices(passes []Pass, jframes []*unify.JFrame, exchanges []*llc.Exchange) {
	i := 0
	for _, ex := range exchanges {
		for ; i < len(jframes) && jframes[i].UnivUS <= ex.CloseUS; i++ {
			for _, p := range passes {
				p.ObserveJFrame(jframes[i])
			}
		}
		for _, p := range passes {
			p.ObserveExchange(ex)
		}
	}
	for ; i < len(jframes); i++ {
		for _, p := range passes {
			p.ObserveJFrame(jframes[i])
		}
	}
}
