package tracefile

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

func TestRotatingWriterSplitsByPeriod(t *testing.T) {
	var bufs []*bytes.Buffer
	w := NewRotatingWriter(func(seg int) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b, nil
	}, 1_000_000) // 1 s segments

	// 3.5 "seconds" of records at 100 ms spacing.
	recs := make([]Record, 0, 35)
	for i := int64(0); i < 35; i++ {
		r := Record{LocalUS: i * 100_000, Frame: []byte{byte(i), 1, 2, 3}, Flags: FlagFCSOK}
		recs = append(recs, r)
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 4 {
		t.Fatalf("segments = %d, want 4", w.Segments())
	}
	// Each segment covers exactly one period.
	for i, b := range bufs {
		rs, err := ReadAll(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if r.LocalUS < int64(i)*1_000_000 || r.LocalUS >= int64(i+1)*1_000_000 {
				t.Fatalf("record at %d in segment %d", r.LocalUS, i)
			}
		}
	}
}

func TestRotatingWriterSkipsEmptyPeriods(t *testing.T) {
	var bufs []*bytes.Buffer
	w := NewRotatingWriter(func(seg int) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b, nil
	}, 1_000_000)
	// Two records 5 periods apart: the idle periods in between must not
	// produce zero-record segment files, and segment numbers stay
	// consecutive.
	if err := w.WriteRecord(Record{LocalUS: 0, Frame: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(Record{LocalUS: 5_100_000, Frame: []byte{2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 2 {
		t.Errorf("segments = %d, want 2 (no zero-record segments for idle periods)", w.Segments())
	}
	for i, b := range bufs {
		rs, err := ReadAll(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 1 {
			t.Errorf("segment %d holds %d records, want 1", i, len(rs))
		}
	}
	// The grid stays anchored at the first record: a later record in the
	// same period as the jump target must share its segment.
	var bufs2 []*bytes.Buffer
	w2 := NewRotatingWriter(func(seg int) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs2 = append(bufs2, b)
		return b, nil
	}, 1_000_000)
	for _, us := range []int64{200_000, 5_300_000, 5_900_000} {
		if err := w2.WriteRecord(Record{LocalUS: us, Frame: []byte{9}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if w2.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", w2.Segments())
	}
	rs, err := ReadAll(bytes.NewReader(bufs2[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("post-gap segment holds %d records, want 2 (grid anchored at first record)", len(rs))
	}
}

func TestRotatingWriterPeriodEdge(t *testing.T) {
	var bufs []*bytes.Buffer
	w := NewRotatingWriter(func(seg int) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b, nil
	}, 1_000_000)
	// A record timestamped exactly on the rotation edge must open the new
	// segment (segments are half-open [start, start+period)).
	for _, us := range []int64{0, 999_999, 1_000_000} {
		if err := w.WriteRecord(Record{LocalUS: us, Frame: []byte{byte(us)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", w.Segments())
	}
	first, err := ReadAll(bytes.NewReader(bufs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadAll(bytes.NewReader(bufs[1].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[len(first)-1].LocalUS != 999_999 {
		t.Errorf("first segment = %d records ending %d, want 2 ending 999999",
			len(first), first[len(first)-1].LocalUS)
	}
	if len(second) != 1 || second[0].LocalUS != 1_000_000 {
		t.Errorf("edge record not at head of new segment: %v", second)
	}
}

func TestRotatingWriterSealHook(t *testing.T) {
	var sealed []int
	var bufs []*bytes.Buffer
	var segRecs []int
	w := NewRotatingWriter(func(seg int) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b, nil
	}, 1_000_000)
	w.SetSealFunc(func(seg int) error {
		// The segment's stream is complete by the time it is sealed.
		rs, err := ReadAll(bytes.NewReader(bufs[seg].Bytes()))
		if err != nil {
			t.Errorf("segment %d at seal: %v", seg, err)
		}
		sealed = append(sealed, seg)
		segRecs = append(segRecs, len(rs))
		return nil
	})
	for i := int64(0); i < 25; i++ {
		if err := w.WriteRecord(Record{LocalUS: i * 100_000, Frame: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Seal fires on rotation, before the next segment opens…
	if len(sealed) != 2 || sealed[0] != 0 || sealed[1] != 1 {
		t.Fatalf("sealed after writes = %v, want [0 1]", sealed)
	}
	// …and on Close for the final segment.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 3 || sealed[2] != 2 {
		t.Fatalf("sealed after close = %v, want [0 1 2]", sealed)
	}
	if want := []int{10, 10, 5}; !reflect.DeepEqual(segRecs, want) {
		t.Errorf("records per segment at seal = %v, want %v", segRecs, want)
	}
}

// TestMultiReaderChains: a trace is a plain sequence of self-framed blocks,
// so consecutive segments concatenated (io.MultiReader here, tailReader in
// the live path) read back as one trace.
func TestMultiReaderChains(t *testing.T) {
	var bufs []*bytes.Buffer
	w := NewRotatingWriter(func(seg int) (io.Writer, error) {
		b := &bytes.Buffer{}
		bufs = append(bufs, b)
		return b, nil
	}, 500_000)
	for i := int64(0); i < 20; i++ {
		w.WriteRecord(Record{LocalUS: i * 100_000, Frame: []byte{byte(i)}, Flags: FlagFCSOK})
	}
	w.Close()

	var readers []io.Reader
	for _, b := range bufs {
		readers = append(readers, bytes.NewReader(b.Bytes()))
	}
	mr := NewReader(io.MultiReader(readers...))
	var got []int64
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec.LocalUS)
	}
	if len(got) != 20 {
		t.Fatalf("read %d records, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("multi-reader out of order")
		}
	}
}

func TestMultiReaderEmpty(t *testing.T) {
	mr := NewReader(io.MultiReader())
	if _, err := mr.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}
