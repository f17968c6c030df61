package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/dot80211"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tracefile"
)

// jiganalyze runs the command from source and returns its stdout and
// stderr. The command runs under a 512 MiB soft heap limit, the ceiling a
// campus run is expected to fit.
func jiganalyze(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	var o, e bytes.Buffer
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	cmd.Env = append(os.Environ(), "GOMEMLIMIT=512MiB")
	cmd.Stdout, cmd.Stderr = &o, &e
	err = cmd.Run()
	return o.String(), e.String(), err
}

// TestExpFlagGone: -passes is the one report selector; its deprecated -exp
// alias is an unknown flag.
func TestExpFlagGone(t *testing.T) {
	_, stderr, err := jiganalyze(t, "-exp", "summary")
	if err == nil || !strings.Contains(stderr, "flag provided but not defined: -exp") {
		t.Fatalf("jiganalyze -exp summary: err = %v, stderr:\n%s", err, stderr)
	}
}

// TestSelectorIsRegistryNames: -passes takes the names -json prints and
// jigd serves; the old section token for the summary is an unknown report,
// and the error lists what is valid.
func TestSelectorIsRegistryNames(t *testing.T) {
	args := []string{"-pods", "3", "-aps", "3", "-clients", "4", "-day", "5s"}
	_, stderr, err := jiganalyze(t, append(args, "-passes", "table1")...)
	if err == nil || !strings.Contains(stderr, `unknown pass "table1"`) ||
		!strings.Contains(stderr, "summary, coverage, timeseries") || !strings.Contains(stderr, "fig4") {
		t.Errorf("jiganalyze -passes table1: err = %v, stderr:\n%s", err, stderr)
	}
	stdout, stderr, err := jiganalyze(t, append(args, "-passes", "summary,fig4")...)
	if err != nil {
		t.Fatalf("jiganalyze -passes summary,fig4: %v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "== Table 1") || !strings.Contains(stdout, "== Fig. 4") || strings.Contains(stdout, "== Fig. 8") {
		t.Errorf("jiganalyze -passes summary,fig4 printed:\n%s", stdout)
	}
}

// TestUnsyncedRadioWarned: a radio the bootstrap cannot synchronize is never
// read, so the run must say which one instead of reporting on a smaller
// deployment in silence.
func TestUnsyncedRadioWarned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 3, 3, 4
	cfg.Day = 5 * sim.Second
	out := spill(t, cfg, dir)
	// One more radio, on a channel nobody else hears and in no clock group.
	const lone = 9000
	frame := dot80211.NewData(dot80211.MAC{2, 1}, dot80211.MAC{2, 2}, dot80211.MAC{2, 3}, 1, []byte("x"))
	f, err := os.Create(tracefile.TracePath(dir, lone))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracefile.WriteAll(f, []tracefile.Record{{
		LocalUS: 1_000_000, RadioID: lone, Channel: 14,
		Rate: uint16(dot80211.Rate11Mbps), Flags: tracefile.FlagFCSOK, Frame: frame.Encode(),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	writeMeta(t, dir, out)

	stdout, stderr, err := jiganalyze(t, "-passes", "summary", dir)
	if err != nil {
		t.Fatalf("jiganalyze: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "warning: radios [9000] could not be synchronized") {
		t.Errorf("no unsynced-radio warning on stderr:\n%s", stderr)
	}
	if !strings.Contains(stdout, "jframes") {
		t.Errorf("the synchronized radios were not reported on:\n%s", stdout)
	}
}

// TestTraceDirectoryReport: over a trace directory, with no simulator
// alongside, jiganalyze prints every report section, and the two that need
// ground truth say so instead of vanishing.
func TestTraceDirectoryReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	cfg := scenario.Default()
	cfg.Pods, cfg.APs, cfg.Clients = 4, 4, 6
	cfg.Day = 15 * sim.Second
	writeMeta(t, dir, spill(t, cfg, dir))

	stdout, stderr, err := jiganalyze(t, dir)
	if err != nil {
		t.Fatalf("jiganalyze: %v\n%s", err, stderr)
	}
	for _, want := range []string{
		"== Table 1", "== Fig. 4", "== Fig. 8", "== Fig. 9", "== Fig. 10", "== §8", "== Fig. 11", "== Roaming",
		"coverage: skipped", "needs simulator ground truth",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("report has no %q:\n%s", want, stdout)
		}
	}
}

// TestCampusDirectoryReport: pointed at a directory of building-NN trace
// directories, jiganalyze takes the hierarchical path and prints the full
// report set.
func TestCampusDirectoryReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	camp := scenario.Campus()
	camp.Buildings = 2
	camp.Building.Pods, camp.Building.APs, camp.Building.Clients = 4, 4, 6
	camp.Building.Day = 15 * sim.Second
	if _, err := scenario.RunCampus(camp, dir, 0); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, err := jiganalyze(t, dir)
	if err != nil {
		t.Fatalf("jiganalyze: %v\n%s", err, stderr)
	}
	for _, want := range []string{
		"== Table 1", "== Fig. 4", "== Fig. 8", "== Fig. 9", "== Fig. 10", "== §8", "== Fig. 11", "== Roaming",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("campus report has no %q:\n%s", want, stdout)
		}
	}
}

// spill runs cfg with its traces written to dir.
func spill(t *testing.T, cfg scenario.Config, dir string) *scenario.Output {
	t.Helper()
	cfg.SpillDir = dir
	out, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeMeta writes out's meta.json (the roster and clock groups) into dir.
func writeMeta(t *testing.T, dir string, out *scenario.Output) {
	t.Helper()
	if err := scenario.WriteMeta(dir, scenario.MetaFromOutput(out)); err != nil {
		t.Fatal(err)
	}
}
