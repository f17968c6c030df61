package hmerge

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestUnifyMatchesFullSort pins the .jfs bytes Unify streams out: the
// unifier's jframes in (UnivUS, emission sequence) order, encoded. The pins
// come from the unifier that inserted each jframe into its held tail one by
// one, with no batch sort, so any change to the grouping, the tie order or
// the release floor shows here as a different stream. The inputs are the
// default capture, a roaming one whose resyncs invert the build order
// locally, and two seconds of one dense campus building, whose batches run
// to the four-search-window cap with thousands of jframes each.
func TestUnifyMatchesFullSort(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates whole buildings")
	}
	roaming := scenario.Roaming()
	roaming.Pods, roaming.APs, roaming.Clients = 5, 9, 8
	roaming.MobileClients, roaming.MoveSpeedMPS = 3, 6
	roaming.Day = 30 * sim.Second
	dense := scenario.Campus().BuildingConfig(0)
	dense.Day = 2 * sim.Second
	for _, tc := range []struct {
		name   string
		cfg    scenario.Config
		sha256 string
		bytes  int
	}{
		{"default", scenario.Default(), "882ce1c9f10d30b3855e6190f53562486a63d5f3592bf08cdce1f829663310e4", 4_511_072},
		{"roaming", roaming, "393aa9730de49b9407b14c54578212ba3917e16d26b37778a380af380c44cf48", 2_955_989},
		{"dense", dense, "a84816f5a46f4ae60e4de259b81d66f84877f0b8d14b5cab602f0ab4a99125a0", 3_137_011},
	} {
		out, err := scenario.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		meta, err := Unify(out.TraceSet(), out.ClockGroups, UnifyConfig{Workers: 1}, &got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(got.Bytes())
		if digest := hex.EncodeToString(sum[:]); digest != tc.sha256 || got.Len() != tc.bytes {
			t.Errorf("%s: Unify wrote %d bytes, sha256 %s; want %d bytes, sha256 %s",
				tc.name, got.Len(), digest, tc.bytes, tc.sha256)
		}
		t.Logf("%s: %d jframes, %d stream bytes", tc.name, meta.JFrames, got.Len())
	}
}
