// Package sim provides the discrete-event simulation engine that drives the
// synthetic 802.11 substrate: an ordered event queue over int64-nanosecond
// true time plus deterministic random-number streams.
//
// Everything in the substrate (MAC state machines, the radio medium, TCP
// endpoints, the workload generator) schedules callbacks on one Engine, so a
// whole building-day is a single deterministic replayable computation.
package sim

import (
	"container/heap"
	"math/rand"
)

// Time is true simulation time in nanoseconds from simulation start. The
// monitors' local clocks (internal/clock) are functions of this time; no
// component outside the substrate ever observes it directly.
type Time int64

// Common durations.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// US constructs a Time from microseconds.
func US(us int64) Time { return Time(us) * Microsecond }

// MS constructs a Time from milliseconds.
func MS(ms int64) Time { return Time(ms) * Millisecond }

// Seconds constructs a Time from (possibly fractional) seconds.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// US64 returns the time in whole microseconds.
func (t Time) US64() int64 { return int64(t) / 1000 }

// SecondsF returns the time in seconds as a float.
func (t Time) SecondsF() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback.
type event struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run in schedule order
	fn   func()
	dead bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Handle identifies a scheduled event so it can be cancelled (e.g. an ACK
// timeout that the ACK arrival defuses).
type Handle struct{ ev *event }

// Cancel marks the event dead; it will be skipped when popped. Cancelling a
// zero Handle or an already-run event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil {
		h.ev.dead = true
	}
}

// Engine is the discrete-event scheduler. Not safe for concurrent use: the
// simulation is single-threaded by design so runs are deterministic.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	rng   *rand.Rand
	stop  bool
}

// NewEngine creates an engine whose random streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic RNG. Components needing an
// independent stream should derive one with NewStream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewStream derives an independent deterministic RNG keyed by id, so adding
// a component does not perturb the draws seen by existing ones.
func (e *Engine) NewStream(id int64) *rand.Rand {
	const mix = int64(-0x61c8864680b583eb) // golden-ratio mixer (2^64/φ as int64)
	return rand.New(rand.NewSource(e.rng.Int63() ^ id*mix))
}

// At schedules fn at absolute time t (clamped to now if in the past) and
// returns a cancellation handle.
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		t = e.now
	}
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return Handle{ev}
}

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) Handle { return e.At(e.now+d, fn) }

// Stop halts Run after the current event returns.
func (e *Engine) Stop() { e.stop = true }

// Run executes events in time order until the queue is empty, Stop is
// called, or the horizon is passed (events at exactly the horizon run).
// It returns the final simulation time.
func (e *Engine) Run(horizon Time) Time {
	e.stop = false
	for len(e.queue) > 0 && !e.stop {
		ev := heap.Pop(&e.queue).(*event)
		if ev.dead {
			continue
		}
		if ev.at > horizon {
			// Leave the event unconsumed conceptually; the engine is done.
			e.now = horizon
			return e.now
		}
		e.now = ev.at
		ev.fn()
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now
}
