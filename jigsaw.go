// Package jigsaw reproduces "Jigsaw: Solving the Puzzle of Enterprise
// 802.11 Analysis" (Cheng, Bellardo, Benkö, Snoeren, Voelker, Savage —
// SIGCOMM 2006) as a Go library.
//
// Jigsaw merges the traces of many passive 802.11 monitors into a single
// globally synchronized trace and reconstructs every link-layer and
// transport-layer conversation from it. This module implements the three
// contributions of the paper — large-scale passive clock synchronization,
// frame unification, and multi-layer reconstruction — together with the
// entire substrate needed to exercise them without the authors' building:
// a discrete-event 802.11b/g simulator (PHY propagation, DCF MAC, TCP
// endpoints, a wired distribution network, imperfect monitor clocks, and a
// diurnal enterprise workload).
//
// # Layout
//
//	internal/dot80211   802.11 frames, rates, airtime, protection math
//	internal/clock      monitor clock models + skew/drift estimators
//	internal/building   geometry, pod/AP placement
//	internal/radio      propagation, SINR medium, carrier sense
//	internal/sim        discrete-event engine
//	internal/mac        DCF stations, APs, clients, protection policy
//	internal/cc         pluggable congestion control (Reno/CUBIC/BBR + fixed)
//	internal/tcpwire    TCP/IP segment header codec, flow key, seq arithmetic
//	internal/tcpsim     TCP endpoints + wired network with bottleneck queue
//	internal/workload   diurnal activity and flow mix
//	internal/block      the one block container + byte-LZ codec under .jig and .jfs
//	internal/tracefile  jigdump trace format (compressed blocks + index)
//	internal/scenario   end-to-end simulation producing traces
//	internal/timesync   §4.1 bootstrap synchronization
//	internal/unify      §4.2 frame unification + continuous resync
//	internal/llc        §5.1 attempts / frame exchanges / inference
//	internal/transport  §5.2 TCP reconstruction + delivery oracle + loss split
//	internal/core       the full pipeline
//	internal/analysis   §6–7 experiments (all tables and figures)
//	internal/baseline   beacon-only sync and naive-merge comparators
//
// The top-level facade re-exports the pieces a user of the library touches
// most: simulate a deployment, run the pipeline, analyze the result.
//
// # Concurrency architecture
//
// The pipeline runs online in a single pass over three stages, written
// once in internal/core and composed by PipelineConfig.Workers:
//
//	stage 1  jframe stream    unification over inline per-radio readers (one
//	                          priority queue: inherently serial, and most of
//	                          the work), or the hierarchical global merge
//	stage 2  reconstruction   llc + the canonical close-order exchange heap,
//	                          released by the reconstruction watermark
//	stage 3  consumers        sinks and analysis passes (transport analysis
//	                          among them: the summary and tcploss passes of a
//	                          set share one internal/transport analyzer)
//
// Workers=1 calls the stages directly, one inside the other, on the
// caller's goroutine. Any other value (the default auto-sizes to
// GOMAXPROCS) runs the same three functions as a pipeline — stage 1 on one
// goroutine, stage 2 on a second, stage 3 on the caller's — with a small
// channel of pooled ~64-item slabs at each of the two cuts; the number also
// sizes the worker pool of the bootstrap pre-scan, whose per-radio windows
// are independent. There is no sharding and nothing to re-merge: the
// pipelined run is the inline code cut at two points, so stage 3 sees the
// inline event order and Workers=N output is identical to Workers=1, a
// property the test suite asserts seed by seed, slab size by slab size and
// across congestion-control mixes (internal/cc controllers are pure
// event-driven state machines over integer microsecond time, so
// Reno/CUBIC/BBR dynamics replay bit-for-bit too). Every sink and pass
// callback comes from the caller's goroutine at every setting. Whole
// scenarios fan across a pool with scenario.RunBatch, which RunCampus uses
// to simulate one building per worker.
//
// # On-disk formats
//
// Per-radio captures (.jig) and the hierarchical merge's intermediate
// jframe streams (.jfs) are the same thing underneath: 16 KB blocks (the
// merge holds one per radio; jigdump's are 64 KB, which still read) behind
// internal/block's 24-byte frame, compressed with its byte-oriented LZ —
// the LZO class the paper's jigdump uses (§3.3), and for the paper's
// reason: a Huffman stage (the stdlib DEFLATE these formats used to carry)
// was the largest single line in every batch profile, 36–39 % of the CPU,
// to save about a quarter of the bytes (.jig +27 %, .jfs +34 % without
// it). Decoding now costs about a third of what it did (per monitor
// record 367 → 111 ns, per jframe 1154 → 305 ns on the reference box);
// README "Performance" has the end-to-end numbers and how to re-measure
// them with bench/. Files written before this change (JIG1, .jfs version
// 1) are rejected with a version error and must be regenerated.
//
// # Quick start
//
//	out, _ := jigsaw.Simulate(jigsaw.DefaultScenario())
//	sum := jigsaw.NewSummaryPass()
//	cfg := jigsaw.DefaultPipeline()
//	cfg.Passes = []jigsaw.Pass{sum}
//	res, _ := jigsaw.Merge(out, cfg)
//	fmt.Println(sum.Finalize()) // Table 1
//	fmt.Println(res.Dispersion.Percentile(0.99), "µs p99 dispersion")
//
// # Streaming analyses
//
// Every analysis in internal/analysis is a streaming pass
// (analysis.Pass): attach passes to PipelineConfig.Passes and the pipeline
// feeds them inline as jframes and exchanges are emitted, at every Workers
// setting. That is the one way to look at a run's products — the Result
// carries counters, not the streams — and the property that lets a
// building-scale trace directory be analyzed in bounded memory. See the
// "Writing an analysis pass" section of README.md.
//
// Congestion-control workloads: MixedCCScenario runs a Reno/CUBIC/BBR
// flow mix over a finite bottleneck queue, and analysis scores each
// algorithm's throughput share from simulator ground truth:
//
//	out, _ := jigsaw.Simulate(jigsaw.MixedCCScenario())
//	fmt.Println(analysis.FairnessTable(analysis.CCFairness(out.FlowCCs, out.Cfg.Day.SecondsF())))
//
// The package's Example walks one small run through the pipeline (`go test
// -run '^Example$' -v .`); `go test -run TestPaperNumbers -v .` prints
// paper-vs-measured for every table and figure.
package jigsaw

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/scenario"
)

// ScenarioConfig parameterizes the simulated deployment.
type ScenarioConfig = scenario.Config

// ScenarioOutput bundles the traces, wired tap, ground truth and roster a
// simulation produces.
type ScenarioOutput = scenario.Output

// PipelineConfig tunes the merge pipeline (search window, resync threshold,
// skew compensation, workers) and carries the analysis passes to feed.
type PipelineConfig = core.Config

// Pass is a streaming observer of the pipeline's jframe and exchange
// streams, the element type of PipelineConfig.Passes.
type Pass = core.Pass

// Result is the pipeline output: bootstrap state, unification statistics,
// dispersion histogram and reconstruction stats.
type Result = core.Result

// DefaultScenario returns a laptop-scale deployment configuration.
func DefaultScenario() ScenarioConfig { return scenario.Default() }

// PaperScaleScenario returns the full 39-pod / 156-radio deployment.
func PaperScaleScenario() ScenarioConfig { return scenario.PaperScale() }

// MixedCCScenario returns a deployment whose flows run an even
// Reno/CUBIC/BBR congestion-control mix over a finite bottleneck queue —
// the workload behind the CC-fairness experiment.
func MixedCCScenario() ScenarioConfig { return scenario.MixedCC() }

// DefaultPipeline returns the paper's pipeline operating point (10 ms
// search window, 10 µs resync threshold, skew compensation on).
func DefaultPipeline() PipelineConfig { return core.DefaultConfig() }

// Simulate runs the substrate and returns per-radio traces plus ground
// truth.
func Simulate(cfg ScenarioConfig) (*ScenarioOutput, error) { return scenario.Run(cfg) }

// BuildingScaleScenario returns the out-of-core deployment: 30 pods (120
// monitor radios), 12 APs, mixed-CC clients, several minutes of sim time.
// Set ScenarioConfig.SpillDir before Simulate so traces stream to disk.
func BuildingScaleScenario() ScenarioConfig { return scenario.BuildingScale() }

// Merge runs the Jigsaw pipeline over a simulation's traces, streaming from
// disk when the scenario spilled them (ScenarioConfig.SpillDir) and from
// the in-memory buffers otherwise.
func Merge(out *ScenarioOutput, cfg PipelineConfig) (*Result, error) {
	return core.RunFrom(out.TraceSet(), out.ClockGroups, cfg, nil)
}

// NewSummaryPass returns the Table-1 trace summary as a streaming pass:
// attach it to PipelineConfig.Passes before Merge and print its Finalize()
// afterwards.
func NewSummaryPass() *analysis.SummaryPass { return analysis.NewSummaryPass() }
