package tcpsim

import (
	"math/rand"

	"repro/internal/dot80211"
	"repro/internal/sim"
	"repro/internal/tcpwire"
)

// WiredNet models the campus distribution network plus upstream Internet
// paths: per-destination latency, independent (low) loss, and a lossless
// tap that records every packet for the §6 wired-trace comparisons.
type WiredNet struct {
	eng *sim.Engine
	rng *rand.Rand

	// LatencyLocal applies to hosts on the local distribution network;
	// LatencyRemote to Internet hosts.
	LatencyLocal  sim.Time
	LatencyRemote sim.Time
	// LossProb is the independent drop probability per wired traversal —
	// small, as Fig. 11 expects the wireless component of TCP loss to
	// dominate.
	LossProb float64

	// QueuePkts, when positive, inserts a finite per-destination FIFO
	// bottleneck in front of the latency stage: packets serialize at
	// BottleneckBytesPerUS and arrivals beyond QueuePkts tail-drop. This is
	// what gives congestion controllers real queue-dependent loss and RTT
	// dynamics to react to. Zero preserves the original unqueued path
	// exactly.
	QueuePkts int
	// BottleneckBytesPerUS is the queue drain rate (bytes per µs; e.g.
	// 12.5 = 100 Mbps). Only consulted when QueuePkts > 0.
	BottleneckBytesPerUS float64

	hosts map[dot80211.MAC]func(tcpwire.Segment)
	// qDepth / qFree model the bottleneck FIFO per destination: packets
	// currently queued, and when the serializer frees up.
	qDepth map[dot80211.MAC]int
	qFree  map[dot80211.MAC]sim.Time
	// lastDelivery enforces per-destination FIFO: wired paths do not
	// reorder packets within a flow, and spurious reordering would fire
	// TCP dup-ACK fast retransmits that never happen in reality.
	lastDelivery map[dot80211.MAC]sim.Time

	// Tap, when set, observes every segment accepted onto the wire with
	// its delivery verdict — this is the "second trace of the same traffic
	// captured on the wired distribution network".
	Tap func(seg tcpwire.Segment, srcMAC, dstMAC dot80211.MAC, delivered bool)

	Stats WiredStats
}

// WiredStats counts wired-segment events.
type WiredStats struct {
	Forwarded int
	Dropped   int
	// QueueDrops counts tail drops at the bottleneck FIFO (a subset of
	// Dropped; only nonzero when QueuePkts > 0).
	QueueDrops int
}

// NewWiredNet builds the wired network.
func NewWiredNet(eng *sim.Engine) *WiredNet {
	return &WiredNet{
		eng:           eng,
		rng:           eng.NewStream(0x77697265),
		LatencyLocal:  500 * sim.Microsecond,
		LatencyRemote: 20 * sim.Millisecond,
		LossProb:      0.002,
		// 100 Mbps default drain rate; inert until QueuePkts is set.
		BottleneckBytesPerUS: 12.5,
		hosts:                make(map[dot80211.MAC]func(tcpwire.Segment)),
		lastDelivery:         make(map[dot80211.MAC]sim.Time),
		qDepth:               make(map[dot80211.MAC]int),
		qFree:                make(map[dot80211.MAC]sim.Time),
	}
}

// Attach registers a host (wired server or an AP's wireless client reached
// via that AP) under a MAC-like address.
func (w *WiredNet) Attach(addr dot80211.MAC, deliver func(tcpwire.Segment)) {
	w.hosts[addr] = deliver
}

// Forward routes a segment toward dst, applying the bottleneck queue (when
// configured), latency and loss. remote selects the Internet latency
// profile.
func (w *WiredNet) Forward(src, dst dot80211.MAC, seg tcpwire.Segment, remote bool) {
	deliver, ok := w.hosts[dst]
	overflow := ok && w.QueuePkts > 0 && w.qDepth[dst] >= w.QueuePkts
	dropped := !ok || overflow || w.rng.Float64() < w.LossProb
	if w.Tap != nil {
		w.Tap(seg, src, dst, !dropped)
	}
	if dropped {
		w.Stats.Dropped++
		if overflow {
			w.Stats.QueueDrops++
		}
		return
	}
	w.Stats.Forwarded++
	lat := w.LatencyLocal
	if remote {
		lat = w.LatencyRemote
	}
	// Jitter: ±10% so ACK compression and timer interleavings vary — but
	// never reordering within a destination (FIFO queues on the path).
	jitter := sim.Time(w.rng.Int63n(int64(lat)/5+1)) - lat/10

	if w.QueuePkts > 0 {
		// Bottleneck FIFO: the packet occupies a queue slot until its
		// serialization completes, then crosses the propagation stage.
		wire := int64(tcpwire.HeaderLen) + int64(seg.PayloadLen)
		ser := sim.Time(float64(wire) / w.BottleneckBytesPerUS * float64(sim.Microsecond))
		start := w.eng.Now()
		if free := w.qFree[dst]; free > start {
			start = free
		}
		depart := start + ser
		w.qFree[dst] = depart
		w.qDepth[dst]++
		at := depart + lat + jitter
		if last := w.lastDelivery[dst]; at < last {
			at = last
		}
		w.lastDelivery[dst] = at
		w.eng.At(depart, func() { w.qDepth[dst]-- })
		w.eng.At(at, func() { deliver(seg) })
		return
	}

	at := w.eng.Now() + lat + jitter
	if last := w.lastDelivery[dst]; at < last {
		at = last
	}
	w.lastDelivery[dst] = at
	w.eng.At(at, func() { deliver(seg) })
}
