package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dot80211"
	"repro/internal/scenario"
)

// TestSectionJSONEveryPass feeds each registry pass's empty-trace report
// through SectionJSON and checks the encoding is valid JSON with a
// non-null rows array — the shape jigd's /reports/<pass> and jiganalyze
// -json both promise.
func TestSectionJSONEveryPass(t *testing.T) {
	params := PassParams{
		SlotUS: 1_000_000,
		IsAP:   func(dot80211.MAC) bool { return false },
		Out:    &scenario.Output{},
	}
	for _, spec := range PassSpecs() {
		p := spec.New(params)
		sec, err := SectionJSON(spec.Name, p.Finalize())
		if err != nil {
			t.Errorf("SectionJSON(%q): %v", spec.Name, err)
			continue
		}
		if sec.Pass != spec.Name {
			t.Errorf("SectionJSON(%q).Pass = %q", spec.Name, sec.Pass)
		}
		b, err := json.Marshal(sec)
		if err != nil {
			t.Errorf("marshal %q section: %v", spec.Name, err)
			continue
		}
		s := string(b)
		if strings.Contains(s, `"rows":null`) || !strings.Contains(s, `"rows":`) {
			t.Errorf("%q section rows must be a non-null array: %s", spec.Name, s)
		}
		var back map[string]any
		if err := json.Unmarshal(b, &back); err != nil {
			t.Errorf("%q section does not round-trip: %v", spec.Name, err)
		}
	}
}

func TestSectionJSONRejectsWrongType(t *testing.T) {
	if _, err := SectionJSON("summary", 42); err == nil {
		t.Error("summary with an int report should fail")
	}
	if _, err := SectionJSON("nonesuch", nil); err == nil {
		t.Error("unknown pass should fail")
	}
}
