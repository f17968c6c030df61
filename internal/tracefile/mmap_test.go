package tracefile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// bulkTrace serializes enough records to span several compressed blocks.
func bulkTrace(t *testing.T, radio int32, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	frame := make([]byte, 120)
	for i := range frame {
		frame[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		frame[0] = byte(i)
		if err := w.WriteRecord(Record{
			LocalUS: int64(10 * i), RadioID: radio, Channel: 1,
			Rate: 110, Flags: FlagFCSOK, Frame: frame,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMmapSourceMatchesBuffer pins the zero-copy file path: an
// mmap-backed source (or its pread fallback on platforms without mmap)
// must decode the identical record stream as an in-memory source.
func TestMmapSourceMatchesBuffer(t *testing.T) {
	data := bulkTrace(t, 7, 5000)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	want, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	src := MmapSource(path)
	rc, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(rc)
	var got []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Records borrow their frame bytes from the reader (for mmap
		// sources, directly from the mapping); copy to keep.
		rec.CloneFrame()
		got = append(got, rec)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mmap-backed decode differs from in-memory decode (%d vs %d records)", len(got), len(want))
	}
}

// TestMappedTraceReleasesBehindReader: a mapped multi-block trace read to
// its end decodes the records the same bytes decode from memory, while the
// pages behind the reader are dropped dropStep at a time — at the end no more
// than dropStep, a page and the last framed block (under another dropStep)
// are left. A dropped page reads the file's bytes again, and a second Open of
// the same file decodes it again.
func TestMappedTraceReleasesBehindReader(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, sample(20000, 3)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) < 8*dropStep {
		t.Fatalf("trace is %d bytes; want many dropSteps", len(data))
	}
	path := filepath.Join(t.TempDir(), "radio-1.jig")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 2; open++ {
		rc, err := MmapSource(path).Open()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d: mapped decode differs from in-memory decode (%d vs %d records)", open, len(got), len(want))
		}
		b, dropped, ok := mappedView(rc)
		if !ok {
			t.Skip("MmapSource does not map on this platform")
		}
		if dropped%pageSize != 0 || dropped < len(data)-2*dropStep-pageSize {
			t.Fatalf("open %d: %d of %d bytes dropped; want whole pages, at least %d", open, dropped, len(data), len(data)-2*dropStep-pageSize)
		}
		if !bytes.Equal(b[:dropped], data[:dropped]) {
			t.Fatalf("open %d: dropped pages no longer read the file's bytes", open)
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("open %d: %d of %d bytes dropped", open, dropped, len(data))
	}
}

// TestMmapSourceEmptyFile covers the zero-length mapping special case
// (mmap rejects empty mappings; an empty trace is just a clean EOF).
func TestMmapSourceEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := MmapSource(path).Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(rc).Next(); err != io.EOF {
		t.Fatalf("empty trace: want io.EOF, got %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestByteStreamSlice pins the block.Slicer contract the reader's
// zero-copy path depends on: exact-length slices, then
// io.ErrUnexpectedEOF once the stream is short.
func TestByteStreamSlice(t *testing.T) {
	s := &byteStream{b: []byte{1, 2, 3, 4, 5}}
	first, err := s.Slice(3)
	if err != nil || !bytes.Equal(first, []byte{1, 2, 3}) {
		t.Fatalf("Slice(3) = %v, %v", first, err)
	}
	if _, err := s.Slice(3); err != io.ErrUnexpectedEOF {
		t.Fatalf("short Slice: want io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestRecordBorrowContract pins the reader's documented ownership rule:
// a returned Record's frame bytes are valid only until the next call,
// and CloneFrame detaches them.
func TestRecordBorrowContract(t *testing.T) {
	data := bulkTrace(t, 3, 4000)
	r := NewReader(bytes.NewReader(data))
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	borrowed := rec.Frame
	want := append([]byte(nil), rec.Frame...)
	rec.CloneFrame()
	// Drain the reader; block buffers are reused along the way.
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(rec.Frame, want) {
		t.Fatal("cloned frame changed while the reader advanced")
	}
	if bytes.Equal(borrowed, want) {
		t.Log("borrowed slice happened to survive (single-block trace?); contract still requires CloneFrame")
	}
}
