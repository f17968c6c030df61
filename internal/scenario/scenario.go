// Package scenario assembles the full substrate — building, medium, APs,
// clients, monitors, wired network, workload — runs a compressed "day" of
// the production network, and emits everything the paper's pipeline and
// experiments consume:
//
//   - one jigdump-format trace per monitor radio (156 at paper scale),
//     timestamped by imperfect per-monitor clocks;
//   - the lossless wired distribution-network trace (§6's comparison set);
//   - the ground-truth transmission log (the §6 oracle);
//   - the roster of APs and clients with PHY modes and positions.
//
// Time compression: the simulated day maps 24 "hours" onto Config.Day of
// simulation time. MAC and TCP dynamics run at natural timescales; only the
// workload schedule compresses.
package scenario

import (
	"bytes"
	"fmt"

	"repro/internal/cc"
	"repro/internal/clock"

	"repro/internal/building"
	"repro/internal/dot80211"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/tcpwire"
	"repro/internal/tracefile"
)

// Node-id namespaces on the medium.
const (
	nodeMonitorBase = 0     // monitor radios: 0..NumRadios-1
	nodeAPBase      = 10000 // APs
	nodeClientBase  = 20000 // clients
	nodeNoiseBase   = 30000 // noise sources
)

// Config parameterizes a scenario run.
type Config struct {
	Seed    int64
	Pods    int // sensor pods (4 radios each); paper: 39
	APs     int // production APs; paper: 39
	Clients int
	// BFraction of clients are legacy 802.11b (they trigger protection).
	BFraction float64
	// Day is the compressed duration representing 24 hours.
	Day sim.Time
	// FlowMeanGap is the mean pause between flows for an active client.
	FlowMeanGap sim.Time
	// ARPInterval is the Vernier management server's sweep period; every
	// sweep broadcasts through every AP nearly simultaneously (§7.1).
	ARPInterval sim.Time
	// ProbeInterval is the clients' background scan period.
	ProbeInterval sim.Time
	// OfficeInterval is the MS-Office license broadcast period per
	// afflicted client (footnote 6).
	OfficeInterval sim.Time
	// ProtectionTimeout for all APs (paper default: one hour).
	ProtectionTimeout sim.Time
	// BrokenRetryFrac of clients retransmit without the retry bit
	// (footnote 5's Intel quirk).
	BrokenRetryFrac float64
	// NoiseSources is the number of microwave-oven interferers.
	NoiseSources int
	// SnapLen for monitor captures.
	SnapLen int
	// WiredLossProb on the distribution network.
	WiredLossProb float64
	// OracleLocations, when positive, adds one roaming "oracle laptop"
	// (§6's controlled experiment) that visits this many locations spread
	// through the building, generating the web/ssh/scp workload at each.
	OracleLocations int
	// CCMix maps congestion-control algorithm names (cc.Reno, cc.Cubic,
	// cc.BBR, cc.Fixed) to per-flow selection weights. Empty means every
	// flow runs the fixed-window compatibility controller, reproducing the
	// pre-cc substrate bit-for-bit.
	CCMix map[string]float64
	// WiredQueuePkts, when positive, bounds the per-destination bottleneck
	// FIFO on the wired path so congestion controllers see real
	// queue-dependent loss and RTT; zero keeps the legacy unqueued wire.
	WiredQueuePkts int
	// WiredBottleneckMbps is the bottleneck drain rate when the queue is
	// enabled (0 picks the wired default of 100 Mbps).
	WiredBottleneckMbps float64
	// FlowScale multiplies every sampled flow's transfer sizes (0 = 1).
	// Congestion-control experiments set it above 1: the enterprise mix's
	// short web flows end during slow start, where every controller looks
	// alike — fairness needs flows that reach steady state.
	FlowScale float64
	// MobileClients makes the first N clients mobile: each walks a
	// deterministic waypoint path through the building on the sim clock
	// with the RSSI-threshold roaming state machine enabled, so it hands
	// off between APs as its serving link collapses. Zero (the default)
	// keeps every client stationary and changes nothing else.
	MobileClients int
	// MoveSpeedMPS is the mobile clients' walking speed (0 = 1.2 m/s).
	MoveSpeedMPS float64
	// RoamHysteresisDB is how much stronger a candidate AP must be before
	// a mobile client roams to it (0 = mac.DefaultRoamHysteresisDB).
	RoamHysteresisDB float64
	// RadioIDBase offsets every monitor radio's id (trace filename and
	// medium node id). Campus generation gives each building a disjoint
	// stride so per-building trace directories can merge into one namespace;
	// RadioIDBase + 4*Pods must stay below the AP node base.
	RadioIDBase int32
	// IndexBase offsets the building's AP/client/server identity indices
	// (MAC addresses and client IPs), keeping campus-wide identities
	// disjoint the same way. Building-local roster indices (ClientInfo.
	// APIndex etc.) remain zero-based.
	IndexBase int
	// NTPAnchor zeroes the first monitor clock's offset/skew/drift, making
	// it a truthful universal-time anchor (the real deployment's footnote-4
	// NTP alignment). Campus generation sets it so a cross-building anchor
	// clock group can bridge otherwise-disjoint buildings in a flat merge;
	// the same number of rng draws happens either way, so enabling it does
	// not shift any other sampled value.
	NTPAnchor bool
	// SpillDir, when non-empty, streams every monitor's trace to
	// radio-<id>.jig in this directory as the radios produce records,
	// instead of accumulating compressed buffers in memory. The directory
	// is created if missing. Output.Traces stays empty; consume the run
	// through Output.TraceSet() (directory-backed) and core.RunFrom. This
	// is what makes building-scale captures — far larger than RAM —
	// generatable at all.
	SpillDir string
}

// Default returns a laptop-scale configuration suitable for tests: a
// quarter of the building for a few compressed hours.
func Default() Config {
	return Config{
		Seed: 1, Pods: 8, APs: 9, Clients: 16, BFraction: 0.2,
		Day: 120 * sim.Second, FlowMeanGap: 10 * sim.Second,
		ARPInterval: 2 * sim.Second, ProbeInterval: 20 * sim.Second,
		OfficeInterval:    15 * sim.Second,
		ProtectionTimeout: mac.DefaultProtectionTimeout,
		BrokenRetryFrac:   0.03, NoiseSources: 1,
		SnapLen: tracefile.DefaultSnapLen, WiredLossProb: 0.002,
	}
}

// PaperScale returns the full deployment: 39 pods (156 radios), 39 APs.
func PaperScale() Config {
	c := Default()
	c.Pods, c.APs, c.Clients = 39, 39, 64
	c.Day = 240 * sim.Second
	return c
}

// MixedCC returns Default with an even Reno/CUBIC/BBR flow mix contending
// for a finite bottleneck queue — the workload behind the fairness
// experiment (cf. arXiv:2505.07741's BBR-vs-CUBIC sharing study).
func MixedCC() Config {
	c := Default()
	c.CCMix = map[string]float64{cc.Reno: 1, cc.Cubic: 1, cc.BBR: 1}
	c.WiredQueuePkts = 32
	c.WiredBottleneckMbps = 30
	c.FlowScale = 8
	return c
}

// Roaming returns Default with mobile clients walking the building under a
// mixed-CC load: the workload behind the handoff-analysis experiments.
// Mobile stations hand off between APs mid-flow, so the pipeline sees
// disassociation/reassociation sequences, scan probe bursts, rate-ladder
// restarts, and TCP flows disrupted by the off-channel gaps.
func Roaming() Config {
	c := Default()
	c.MobileClients = 4
	c.MoveSpeedMPS = 1.5
	c.RoamHysteresisDB = 4
	c.CCMix = map[string]float64{cc.Reno: 1, cc.Cubic: 1, cc.BBR: 1}
	c.WiredQueuePkts = 32
	c.WiredBottleneckMbps = 30
	c.FlowScale = 4
	return c
}

// BuildingScale returns the paper-§5-shaped deployment the pipeline must
// handle out-of-core: 30 pods (120 monitor radios), 12 production APs and
// 48 clients running a mixed Reno/CUBIC/BBR flow load over a bounded
// bottleneck for several minutes of compressed sim time. The trace set is
// deliberately far larger than Default()'s; run it with Config.SpillDir
// set (jigsim -preset building -o <dir>) so generation streams to disk,
// and feed the pipeline through core.RunFrom so merging streams too.
func BuildingScale() Config {
	c := Default()
	c.Pods, c.APs, c.Clients = 30, 12, 48
	c.Day = 300 * sim.Second
	c.CCMix = map[string]float64{cc.Reno: 1, cc.Cubic: 1, cc.BBR: 1}
	c.WiredQueuePkts = 32
	c.WiredBottleneckMbps = 30
	c.FlowScale = 4
	return c
}

// Preset resolves a named configuration preset — the single registry the
// CLIs share, so a new preset lands everywhere at once.
func Preset(name string) (Config, error) {
	switch name {
	case "", "default":
		return Default(), nil
	case "paper":
		return PaperScale(), nil
	case "mixedcc":
		return MixedCC(), nil
	case "roaming":
		return Roaming(), nil
	case "building":
		return BuildingScale(), nil
	}
	return Config{}, fmt.Errorf("scenario: unknown preset %q (default, paper, mixedcc, roaming, building)", name)
}

// Handoff is the simulator's ground-truth record of one client handoff:
// the roaming state machine's decision and, if the handshake with the new
// AP completed, when. The analysis layer's handoff detector is scored
// against these.
type Handoff struct {
	Client dot80211.MAC
	FromAP dot80211.MAC
	ToAP   dot80211.MAC
	// DecideUS is when the roamer committed (before the disassociation
	// went on air); CompleteUS is when the new association finished.
	DecideUS   int64
	CompleteUS int64
	Completed  bool
}

// LatencyUS returns the handoff's decision-to-association latency (0 for
// handoffs that never completed).
func (h Handoff) LatencyUS() int64 {
	if !h.Completed {
		return 0
	}
	return h.CompleteUS - h.DecideUS
}

// WiredPacket is one packet observed at the wired distribution tap.
type WiredPacket struct {
	TimeUS    int64
	Seg       tcpwire.Segment
	Src, Dst  dot80211.MAC
	Delivered bool
	Downlink  bool // toward a wireless client
}

// TxKind classifies a ground-truth transmission.
type TxKind uint8

// Transmission kinds.
const (
	TxData TxKind = iota
	TxMgmt
	TxAck
	TxCTS
	TxOther
	TxNoise
)

// TxSummary is the ground-truth record of one physical transmission: the
// §6 oracle knows everything the monitors might have missed.
type TxSummary struct {
	ID      uint64
	Src     radio.NodeID
	SrcMAC  dot80211.MAC
	Dest    dot80211.MAC
	Kind    TxKind
	Channel dot80211.Channel
	Rate    dot80211.Rate
	StartUS int64 // true time
	Seq     uint16
	Retry   bool
	Unicast bool
	WireLen int
}

// FlowCC is the simulator's ground-truth record of one TCP flow: which
// congestion controller drove it and what it achieved. analysis.CCFairness
// aggregates these into per-algorithm shares.
type FlowCC struct {
	Key  tcpwire.FlowKey
	Algo string // cc algorithm name
	// ClientIP/ClientPort identify the wireless side; ServerIP the peer.
	ClientIP   uint32
	ClientPort uint16
	ServerIP   uint32
	// UpBytes/DownBytes are the application bytes the workload asked for;
	// BytesAcked is what both endpoints actually had acknowledged.
	UpBytes, DownBytes int64
	BytesAcked         int64
	StartUS, EndUS     int64
	Completed          bool
}

// ClientInfo describes one client in the roster.
type ClientInfo struct {
	MAC     dot80211.MAC
	IP      uint32
	PHY     mac.PHYMode
	APIndex int
	Node    radio.NodeID
	Pos     building.Point
}

// APInfo describes one AP.
type APInfo struct {
	MAC     dot80211.MAC
	Channel dot80211.Channel
	Node    radio.NodeID
	Pos     building.Point
}

// Output bundles everything a run produces.
type Output struct {
	Cfg      Config
	Building *building.Building
	// Traces holds the per-radio compressed jigdump traces when the run
	// accumulated them in memory; empty when Config.SpillDir streamed them
	// to disk (see TraceDir). TraceSet() abstracts over both.
	Traces map[int32]*bytes.Buffer // radio id → compressed jigdump trace
	// TraceDir is the directory the traces were spilled to (mirrors
	// Config.SpillDir; empty for in-memory runs).
	TraceDir    string
	ClockGroups [][]int32 // radios sharing a physical clock (per monitor)
	Wired       []WiredPacket
	Truth       []TxSummary
	// CapturedValid[txID] counts monitor radios that decoded transmission
	// txID; CapturedAny counts radios that recorded any evidence of it.
	CapturedValid map[uint64]int
	CapturedAny   map[uint64]int
	// CapturedCorrupt / CapturedPhy break CapturedAny down by outcome.
	CapturedCorrupt map[uint64]int
	CapturedPhy     map[uint64]int
	Clients         []ClientInfo
	APs             []APInfo
	// FlowsCompleted counts TCP connections that ran to completion.
	FlowsCompleted int
	FlowsStarted   int
	// FlowCCs is per-flow congestion-control ground truth, in flow start
	// order (flows still open at day end have Completed false and EndUS at
	// the horizon).
	FlowCCs []FlowCC
	// MonitorRecords counts captured records across all radios.
	MonitorRecords int64
	// MonitorClocks exposes each radio's true clock model for validation
	// tests and diagnostics (the pipeline itself never sees these).
	MonitorClocks map[int32]*clock.Clock
	// OracleMAC is the roaming oracle client's address (zero if disabled).
	OracleMAC dot80211.MAC
	// MobileMACs lists the mobile clients' addresses, in client order
	// (empty when Config.MobileClients is zero).
	MobileMACs []dot80211.MAC
	// Handoffs is per-handoff ground truth from the mobile clients'
	// roaming state machines, in decision order.
	Handoffs []Handoff
}

// HourDur returns the simulated duration of one compressed hour.
func (c Config) HourDur() sim.Time { return c.Day / 24 }

// TraceSet returns the run's monitor traces as a tracefile.TraceSet:
// directory-backed when the run spilled to disk, buffer-backed otherwise.
// This is the form core.RunFrom consumes.
func (o *Output) TraceSet() *tracefile.TraceSet {
	if o.TraceDir == "" {
		sources := make(map[int32]tracefile.Source, len(o.Traces))
		for r, buf := range o.Traces {
			sources[r] = tracefile.BufferSource(buf.Bytes())
		}
		return tracefile.NewTraceSet(sources)
	}
	sources := make(map[int32]tracefile.Source)
	for _, g := range o.ClockGroups {
		for _, r := range g {
			sources[r] = tracefile.FileSource(tracefile.TracePath(o.TraceDir, r))
		}
	}
	return tracefile.NewTraceSet(sources)
}

// Run executes the scenario and returns its output.
func Run(cfg Config) (*Output, error) {
	if cfg.Pods <= 0 || cfg.APs <= 0 {
		return nil, fmt.Errorf("scenario: need pods and APs")
	}
	if cfg.RadioIDBase < 0 || int(cfg.RadioIDBase)+4*cfg.Pods > nodeAPBase {
		return nil, fmt.Errorf("scenario: RadioIDBase %d leaves radios outside [0, %d)", cfg.RadioIDBase, nodeAPBase)
	}
	mix, err := cc.NewMix(cfg.CCMix)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s := newState(cfg)
	s.ccMix = mix
	if err := s.buildWorld(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s.scheduleWorkload()
	s.eng.Run(cfg.Day)
	return s.finish()
}
