package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExpFlagGone: -passes is the one report selector; its deprecated -exp
// alias is an unknown flag.
func TestExpFlagGone(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	out, err := exec.Command("go", "run", ".", "-exp", "table1").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -exp") {
		t.Fatalf("jiganalyze -exp table1: err = %v, output:\n%s", err, out)
	}
}
