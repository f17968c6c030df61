package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/hmerge"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestUnifyWritesStream: run as its own process over one building of a
// campus, jigunify writes a non-empty intermediate stream and its metadata
// sidecar.
func TestUnifyWritesStream(t *testing.T) {
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

	out := filepath.Join(t.TempDir(), "building-00.jfs")
	var stderr bytes.Buffer
	cmd := exec.Command("go", "run", ".", "-in", filepath.Join(dir, scenario.BuildingDirName(0)), "-out", out)
	cmd.Env = append(os.Environ(), "GOMEMLIMIT=512MiB")
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("jigunify: %v\n%s", err, stderr.String())
	}
	for _, path := range []string{out, hmerge.MetaPath(out)} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
