package jigsaw_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	jigsaw "repro"
	"repro/internal/analysis"
)

// TestQuickStart runs the package comment's quick start — attach the
// summary pass, Merge, read Finalize — and requires the summary to be about
// the run: a pass that was never fed reports zero for every field below.
func TestQuickStart(t *testing.T) {
	scfg := jigsaw.DefaultScenario()
	scfg.Pods = 4
	out, err := jigsaw.Simulate(scfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := jigsaw.NewSummaryPass()
	cfg := jigsaw.DefaultPipeline()
	cfg.Passes = []jigsaw.Pass{sum}
	res, err := jigsaw.Merge(out, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sum.Finalize().(*analysis.TraceSummary)
	if s.JFrames != res.UnifyStats.JFrames || s.JFrames == 0 {
		t.Errorf("summary counts %d jframes, the run unified %d", s.JFrames, res.UnifyStats.JFrames)
	}
	if s.DurationUS <= 0 || s.AvgInstances <= 0 || s.UniqueClients <= 0 || s.UniqueAPs <= 0 || s.DataFrames <= 0 {
		t.Errorf("summary is missing what only the jframe stream provides:\n%s", s)
	}
}

// TestBenchModule vets and tests bench/, the benchmark harness: it is a
// module of its own (so `go test ./...` here does not reach it) that imports
// this module's internal packages, and this is where tier-1 learns that an
// API change stranded it.
func TestBenchModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bench module's own tests")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %s %s: %v\n%s", args[0], args[1], err, b)
		}
	}
}

// TestPipelineLinksNoSimulator keeps the system under test apart from the
// generator that tests it: no pipeline package may link a simulator
// package, so a fault in the simulator cannot sit on both sides of a check.
// It reads each package's dependency closure (what `go list -deps` prints)
// from the go command.
func TestPipelineLinksNoSimulator(t *testing.T) {
	pipeline := []string{"core", "llc", "unify", "hmerge", "timesync", "tracefile", "block", "clock", "dot80211", "transport", "tcpwire"}
	simulator := map[string]bool{}
	for _, name := range []string{"scenario", "tcpsim", "cc", "mac", "radio", "building", "sim", "workload"} {
		simulator["repro/internal/"+name] = true
	}
	args := []string{"list", "-f", "{{.ImportPath}} {{join .Deps \" \"}}"}
	for _, name := range pipeline {
		args = append(args, "repro/internal/"+name)
	}
	b, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, b)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != len(pipeline) {
		t.Fatalf("go list described %d packages, want %d:\n%s", len(lines), len(pipeline), b)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, dep := range fields[1:] {
			if simulator[dep] {
				t.Errorf("%s links the simulator package %s", fields[0], dep)
			}
		}
	}
}
