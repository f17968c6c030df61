package tracefile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestParseTraceName(t *testing.T) {
	cases := []struct {
		name string
		id   int32
		ok   bool
	}{
		{"radio-7.jig", 7, true},
		{"radio-123.jig", 123, true},
		{"radio-007.jig", 7, true},
		{"radio007.jig", 0, false}, // the pre-JIG2 spelling: such a file cannot be read anyway
		{"radio7.jig", 0, false},
		{"radio-7.idx", 0, false},
		{"meta.json", 0, false},
		{"radio-.jig", 0, false},
		{"radio-x.jig", 0, false},
		{"radio--3.jig", 0, false},
		{"sub/radio-9.jig", 9, true},
	}
	for _, c := range cases {
		id, ok := ParseTraceName(c.name)
		if ok != c.ok || (ok && id != c.id) {
			t.Errorf("ParseTraceName(%q) = (%d, %v), want (%d, %v)", c.name, id, ok, c.id, c.ok)
		}
	}
}

// sampleTrace serializes a few records and returns the bytes.
func sampleTrace(t *testing.T, radio int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	recs := []Record{
		{LocalUS: 10, RadioID: radio, Channel: 1, Rate: 20, Flags: FlagFCSOK, Frame: []byte{1, 2, 3}},
		{LocalUS: 25, RadioID: radio, Channel: 1, Flags: FlagPhyErr},
	}
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceSetBufferAndDirEquivalent(t *testing.T) {
	traces := map[int32][]byte{
		3:  sampleTrace(t, 3),
		11: sampleTrace(t, 11),
	}
	bufSet := NewBufferSet(traces)

	dir := t.TempDir()
	for r, b := range traces {
		if err := os.WriteFile(TracePath(dir, r), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A stray non-trace file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirSet, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	for _, ts := range []*TraceSet{bufSet, dirSet} {
		radios := ts.Radios()
		if len(radios) != 2 || radios[0] != 3 || radios[1] != 11 {
			t.Fatalf("Radios() = %v, want [3 11]", radios)
		}
		for _, r := range radios {
			rc, err := ts.Open(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rc)
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, traces[r]) {
				t.Errorf("radio %d: source bytes differ from original", r)
			}
			recs, err := ReadAll(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2 || recs[0].RadioID != r {
				t.Errorf("radio %d: decoded %d records", r, len(recs))
			}
		}
	}
	if _, err := bufSet.Open(99); err == nil {
		t.Error("Open of unknown radio succeeded")
	}
	if dirSet.Dir() != dir {
		t.Errorf("Dir() = %q", dirSet.Dir())
	}
}

func TestOpenDirErrors(t *testing.T) {
	if _, err := OpenDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("OpenDir of missing directory succeeded")
	}
	empty := t.TempDir()
	if _, err := OpenDir(empty); err == nil {
		t.Error("OpenDir of empty directory succeeded")
	}
}

// TestOpenDirDuplicateRadio: two spellings of one radio id must be an
// error, not a silent pick; a file in the unrecognized pre-JIG2 spelling is
// ignored like any other stray file.
func TestOpenDirDuplicateRadio(t *testing.T) {
	dir := t.TempDir()
	b := sampleTrace(t, 3)
	write := func(name string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("radio-3.jig")
	write("radio003.jig")
	ts, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("an unrecognized radio003.jig must be ignored: %v", err)
	}
	if ts.Len() != 1 {
		t.Fatalf("set has %d radios, want 1", ts.Len())
	}
	write("radio-03.jig")
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("OpenDir accepted two traces for one radio")
	}
}
