package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs the four closed-loop workloads and both traced runs at
// tiny scale (4 pods, 10 s days, one timed iteration) with every check on.
// live_paced needs the real jigd and ten wall seconds, so it is left to
// the benchmark itself.
func TestSmoke(t *testing.T) {
	h, err := newHarness(1, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := h.cleanup(); err != nil {
			t.Error(err)
		}
	})
	h.pods, h.paperDaySec, h.campusDaySec = 4, 10, 10
	h.setups, h.minIters = 1, 1

	for _, name := range workloadNames() {
		if name == "live_paced" {
			continue
		}
		o := h.runWorkload(name)
		if r := o.result(endToEnd); !r.Correct || r.Attempted != 1 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", name, o.attempted, o.failed, o.problems)
		}
		for _, d := range endToEnd {
			if !(o.values[d.name] > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, d.name, o.values[d.name])
			}
		}
	}

	paper, err := h.setupPaper(h.paperDaySec, filepath.Join(h.work, "paper"))
	if err != nil {
		t.Fatal(err)
	}
	campus, err := h.setupCampus(filepath.Join(h.work, "campus"), true)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{epoch: time.Now()}
	o := &outcome{values: map[string]float64{}}
	if _, _, err := h.traceFlat(tr, o, paper); err != nil {
		t.Fatal(err)
	}
	if err := traceHier(tr, o, campus); err != nil {
		t.Fatal(err)
	}
	if len(o.problems) > 0 {
		t.Errorf("traced runs: %v", o.problems)
	}
	for _, name := range []string{"tracefile.read_ns_per_record", "unify.self_ns_per_record", "hmerge.write_ns_per_jframe",
		"hmerge.read_ns_per_jframe", "llc.self_ns_per_jframe", "analysis.summary_ns_per_jframe"} {
		if !(o.values[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, o.values[name])
		}
	}
	if len(tr.open) != 0 || len(tr.spans) == 0 {
		t.Errorf("tracer left %d spans open of %d", len(tr.open), len(tr.spans))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables in
// step: the same workloads and reasons, metrics, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the harness %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
	for _, m := range spec.EndToEnd {
		if m.Bound != bound {
			t.Errorf("%s: BENCHMARK.json bound %v, the harness %v", m.Name, m.Bound, bound)
		}
	}
}
