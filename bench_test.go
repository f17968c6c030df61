// Micro-benchmarks of the unifier, the 802.11 codec and the trace format,
// over the reduced paper scenario that TestPaperNumbers also runs.
// End-to-end throughput, heap and allocation rates are bench/'s job (`bash
// bench/run.sh`: paper_serial, paper_flat, ...); the paper's numbers are
// TestPaperNumbers' table.
package jigsaw

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timesync"
	"repro/internal/tracefile"
	"repro/internal/unify"
)

// benchState caches one simulated scenario shared by the benchmarks and
// TestPaperNumbers (regenerating it per caller would swamp the
// measurements). It is treated as immutable: traces holds its own copy of
// every trace's bytes (not views into out.Traces buffers), and each pipeline
// run reads a fresh TraceSet over them, so no run can alias state another
// still reads.
type benchState struct {
	out    *scenario.Output
	traces map[int32][]byte
}

var (
	benchOnce sync.Once
	bench     benchState
	benchErr  error
)

// setupBench simulates the reduced paper scenario once per process:
// scenario.Default() at seed 3 with 12 pods, 12 APs, 24 clients, a 120 s
// day and 30 % 802.11b clients.
func setupBench(tb testing.TB) *benchState {
	tb.Helper()
	benchOnce.Do(func() {
		cfg := scenario.Default()
		cfg.Seed = 3
		cfg.Pods, cfg.APs, cfg.Clients = 12, 12, 24
		cfg.Day = 120 * sim.Second
		cfg.BFraction = 0.3
		out, err := scenario.Run(cfg)
		if err != nil {
			benchErr = err
			return
		}
		traces := make(map[int32][]byte, len(out.Traces))
		for r, buf := range out.Traces {
			traces[r] = append([]byte(nil), buf.Bytes()...)
		}
		bench = benchState{out: out, traces: traces}
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return &bench
}

// denseBuilding simulates two seconds of one campus building once per
// process: scenario.Campus's building 0, 96 radios, whose batches run to the
// unifier's four-search-window cap with thousands of jframes each.
var denseBuilding = sync.OnceValues(func() (*scenario.Output, error) {
	cfg := scenario.Campus().BuildingConfig(0)
	cfg.Day = 2 * sim.Second
	return scenario.Run(cfg)
})

// BenchmarkUnifierOnly isolates the unification stage from reconstruction:
// "paper" over the reduced paper scenario, "dense" over denseBuilding. It
// reports ns/record, the time per record consumed.
func BenchmarkUnifierOnly(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		s := setupBench(b)
		benchUnifier(b, s.traces, s.out.ClockGroups)
	})
	b.Run("dense", func(b *testing.B) {
		out, err := denseBuilding()
		if err != nil {
			b.Fatal(err)
		}
		traces := make(map[int32][]byte, len(out.Traces))
		for r, buf := range out.Traces {
			traces[r] = buf.Bytes()
		}
		benchUnifier(b, traces, out.ClockGroups)
	})
}

// benchUnifier times unify.New and a full drain over in-memory records, so
// no block is decompressed in the loop, and releases every jframe as the
// pipeline does, so the pool recycles them. The bootstrap window is the
// pipeline's: timesync.CollectWindow over each radio's first
// DefaultWindowUS, in radio order.
func benchUnifier(b *testing.B, traces map[int32][]byte, clockGroups [][]int32) {
	perRadio := map[int32][]tracefile.Record{}
	readers := map[int32]*tracefile.Reader{}
	for radio, blob := range traces {
		rs, err := tracefile.ReadAll(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		perRadio[radio] = rs
		readers[radio] = tracefile.NewReader(bytes.NewReader(blob))
	}
	window, err := timesync.CollectWindow(readers, timesync.DefaultWindowUS)
	if err != nil {
		b.Fatal(err)
	}
	boot, err := timesync.Bootstrap(window, clockGroups)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("%d of %d radios synchronized", len(boot.OffsetUS), len(perRadio))
	var records int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources := map[int32]unify.Source{}
		for radio, rs := range perRadio {
			sources[radio] = unify.NewSliceSource(rs)
		}
		u := unify.New(unify.DefaultConfig(), sources, boot)
		for {
			j, err := u.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			j.Release()
		}
		records += u.Stats.Events
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkFrameCodec measures the 802.11 encode/decode hot path.
func BenchmarkFrameCodec(b *testing.B) {
	f := dot80211.NewData(
		dot80211.MAC{2, 1}, dot80211.MAC{2, 2}, dot80211.MAC{2, 3},
		1234, make([]byte, 1460))
	wire := f.Encode()
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Encode()
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dot80211.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.SetBytes(int64(len(wire)))
}

// BenchmarkTracefileRoundTrip measures the jigdump format.
func BenchmarkTracefileRoundTrip(b *testing.B) {
	s := setupBench(b)
	var blob []byte
	for _, bs := range s.traces {
		if len(bs) > len(blob) {
			blob = bs
		}
	}
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := tracefile.ReadAll(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("empty trace")
		}
	}
}
