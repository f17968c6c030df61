package tracefile

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
)

func TestParseSegmentName(t *testing.T) {
	cases := []struct {
		name  string
		radio int32
		seg   int
		ok    bool
	}{
		{"radio-7.seg-0003.jig", 7, 3, true},
		{"radio-120.seg-0000.jig", 120, 0, true},
		{"radio-7.seg-12345.jig", 7, 12345, true},
		{"radio-7.jig", 0, 0, false},
		{"radio-7.seg-0003.sealed", 0, 0, false},
		{"radio-.seg-0003.jig", 0, 0, false},
		{"radio-7.seg-.jig", 0, 0, false},
		{"meta.json", 0, 0, false},
	}
	for _, c := range cases {
		r, s, ok := ParseSegmentName(c.name)
		if ok != c.ok || r != c.radio || s != c.seg {
			t.Errorf("ParseSegmentName(%q) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, r, s, ok, c.radio, c.seg, c.ok)
		}
	}
}

// writeSealedSegment writes one sealed segment file + seal marker.
func writeSealedSegment(t *testing.T, dir string, radio int32, seg int, recs []Record) {
	t.Helper()
	if err := os.WriteFile(SegmentTracePath(dir, radio, seg), segmentBytes(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	markSealed(t, dir, radio, seg)
}

func tailRecords(n int, base int64) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{LocalUS: base + int64(i)*1000, RadioID: 1, Frame: []byte{byte(i), 1, 2}, Flags: FlagFCSOK}
	}
	return recs
}

func TestDirRotatingWriterSealsSegments(t *testing.T) {
	dir := t.TempDir()
	w := NewDirRotatingWriter(dir, 3, 1_000_000)
	for i := int64(0); i < 25; i++ {
		if err := w.WriteRecord(Record{LocalUS: i * 100_000, RadioID: 3, Frame: []byte{byte(i)}, Flags: FlagFCSOK}); err != nil {
			t.Fatal(err)
		}
	}
	// Segments 0 and 1 are rotated out and sealed; segment 2 is still
	// being written, so its seal marker must not exist yet.
	for seg := 0; seg < 2; seg++ {
		if _, err := os.Stat(SegmentSealPath(dir, 3, seg)); err != nil {
			t.Errorf("segment %d not sealed: %v", seg, err)
		}
	}
	if _, err := os.Stat(SegmentSealPath(dir, 3, 2)); err == nil {
		t.Error("active segment 2 has a seal marker before Close")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 3 {
		t.Fatalf("segments = %d, want 3", w.Segments())
	}
	// Every sealed segment round-trips.
	var total int
	for seg := 0; seg < 3; seg++ {
		f, err := os.Open(SegmentTracePath(dir, 3, seg))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		total += len(recs)
		if _, err := os.Stat(SegmentSealPath(dir, 3, seg)); err != nil {
			t.Errorf("segment %d not sealed after Close: %v", seg, err)
		}
	}
	if total != 25 {
		t.Fatalf("read %d records across segments, want 25", total)
	}
}

// tailFeed follows one radio of a TailSet from its own goroutine: stamps of
// the records read arrive on us (buffered past any test's record count, so
// the reader never waits on the test), the stream's end on end.
type tailFeed struct {
	src *RadioSource
	us  chan int64
	end chan error
}

func follow(ts *TailSet, radio int32) *tailFeed {
	f := &tailFeed{src: ts.TraceSet().Source(radio), us: make(chan int64, 4096), end: make(chan error, 1)}
	go func() {
		for {
			rec, err := f.src.Next()
			if err != nil {
				f.end <- err
				return
			}
			f.us <- rec.LocalUS
		}
	}()
	return f
}

// untilParked waits for the feed's reader to park (the TailSet's parks to
// pass after) and returns the stamps it read on the way: every send
// precedes the park, so nothing is still in flight.
func (f *tailFeed) untilParked(t *testing.T, ts *TailSet, after int64) []int64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ts.Counters().BlockedTicks <= after {
		if time.Now().After(deadline) {
			t.Fatal("reader never parked")
		}
		runtime.Gosched()
	}
	return f.drain()
}

// untilEnd waits for the stream to end and returns the stamps read since the
// last call and the error Next ended on.
func (f *tailFeed) untilEnd(t *testing.T) ([]int64, error) {
	t.Helper()
	select {
	case err := <-f.end:
		return f.drain(), err
	case <-time.After(10 * time.Second):
		t.Fatal("stream never ended")
		return nil, nil
	}
}

func (f *tailFeed) drain() []int64 {
	var us []int64
	for {
		select {
		case u := <-f.us:
			us = append(us, u)
		default:
			return us
		}
	}
}

func stamps(recs []Record) []int64 {
	us := make([]int64, len(recs))
	for i, r := range recs {
		us[i] = r.LocalUS
	}
	return us
}

// appendFile appends b to an existing file, as a writer that has the segment
// open would.
func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentBytes is recs as one segment's bytes.
func segmentBytes(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// markSealed creates a segment's seal marker, as the writer does once the
// segment file is closed.
func markSealed(t *testing.T, dir string, radio int32, seg int) {
	t.Helper()
	if err := os.WriteFile(SegmentSealPath(dir, radio, seg), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTailSetSealedVsActive: a sealed segment is read to its end and counted
// as sealed; an active successor holding less than one block yields nothing,
// parks the reader, and at the end of capture is a torn tail — dropped,
// counted, and not an error.
func TestTailSetSealedVsActive(t *testing.T) {
	dir := t.TempDir()
	writeSealedSegment(t, dir, 1, 0, tailRecords(5, 0))
	// Segment 1 exists but is unsealed (no seal marker): an in-progress write.
	partial := []byte("partial garbage")
	if err := os.WriteFile(SegmentTracePath(dir, 1, 1), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	ts := NewTailSet(dir)
	if got := ts.SealedSegments(1); got != 1 {
		t.Fatalf("sealed segments = %d, want 1 (active segment must not count)", got)
	}
	f := follow(ts, 1)
	if got := f.untilParked(t, ts, 0); len(got) != 5 {
		t.Fatalf("read %d records before parking, want the sealed segment's 5", len(got))
	}
	ts.Finish()
	if got, err := f.untilEnd(t); err != io.EOF || len(got) != 0 {
		t.Fatalf("after Finish: %d records, err %v; want a clean EOF and nothing of the partial block", len(got), err)
	}
	if err := f.src.Err(); err != nil {
		t.Fatalf("RadioSource.Err() = %v, want nil: a torn tail is not a failure", err)
	}
	c := ts.Counters()
	if c.SealedBlocks != 1 || c.OpenBlocks != 0 || c.TornBytes != int64(len(partial)) || c.BlockedTicks != 1 {
		t.Fatalf("counters = %+v, want 1 sealed block, 0 open, %d torn bytes, 1 blocked tick", c, len(partial))
	}
}

func TestTailSetPicksUpNewSegments(t *testing.T) {
	dir := t.TempDir()
	writeSealedSegment(t, dir, 2, 0, tailRecords(4, 0))
	ts := NewTailSet(dir)
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}
	set := ts.TraceSet()
	rc, err := set.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	r := NewReader(rc)

	got := make(chan []int64, 1)
	go func() {
		var us []int64
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			us = append(us, rec.LocalUS)
		}
		got <- us
	}()

	// Let the reader drain segment 0 and block at the frontier, then seal
	// a new segment mid-run and mark the capture done.
	time.Sleep(20 * time.Millisecond)
	writeSealedSegment(t, dir, 2, 1, tailRecords(3, 1_000_000))
	if err := MarkCaptureDone(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}

	us := <-got
	if len(us) != 7 {
		t.Fatalf("read %d records, want 7 (4 + 3 from the mid-run segment)", len(us))
	}
	if us[4] != 1_000_000 {
		t.Fatalf("first record of new segment at %d, want 1000000", us[4])
	}
	if !ts.Done() {
		t.Error("capture.done marker not noticed")
	}
}

// TestTailSetTruncatedSegmentSkippedThenPickedUp: a sealed segment behind an
// unsealed, stalled one is held back — nothing of it is read however often
// the reader is woken — and is picked up, in order, once the writer finishes
// the stalled segment and creates its seal marker.
func TestTailSetTruncatedSegmentSkippedThenPickedUp(t *testing.T) {
	dir := t.TempDir()
	writeSealedSegment(t, dir, 1, 0, tailRecords(2, 0))
	// Segment 1: the writer stalled two bytes into its only block.
	seg1 := segmentBytes(t, tailRecords(2, 1_000_000))
	if err := os.WriteFile(SegmentTracePath(dir, 1, 1), seg1[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Segment 2 sealed *before* segment 1: must be held back until its
	// predecessor is final, or the stream would skip records.
	writeSealedSegment(t, dir, 1, 2, tailRecords(2, 2_000_000))

	ts := NewTailSet(dir)
	if got := ts.SealedSegments(1); got != 1 {
		t.Fatalf("sealed segments = %d, want 1 (gap at unsealed segment 1)", got)
	}
	f := follow(ts, 1)
	got := f.untilParked(t, ts, 0)
	for tick := int64(1); tick <= 3; tick++ {
		if _, err := ts.Scan(); err != nil {
			t.Fatal(err)
		}
		got = append(got, f.untilParked(t, ts, tick)...)
	}
	if len(got) != 2 || got[1] >= 1_000_000 {
		t.Fatalf("read %v while segment 1 was stalled, want only segment 0's two records", got)
	}

	// The writer recovers: the rest of segment 1 lands, then its marker.
	appendFile(t, SegmentTracePath(dir, 1, 1), seg1[2:])
	markSealed(t, dir, 1, 1)
	if got := ts.SealedSegments(1); got != 3 {
		t.Fatalf("sealed segments = %d, want 3 (gap closed)", got)
	}
	ts.Finish()
	rest, err := f.untilEnd(t)
	if err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	got = append(got, rest...)
	if len(got) != 6 {
		t.Fatalf("read %d records, want 6 in order across the healed gap", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("records out of order across segments")
		}
	}
}

func TestTailSetRosterFixedAtTraceSet(t *testing.T) {
	dir := t.TempDir()
	writeSealedSegment(t, dir, 1, 0, tailRecords(1, 0))
	ts := NewTailSet(dir)
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}
	set := ts.TraceSet()
	writeSealedSegment(t, dir, 9, 0, tailRecords(1, 0))
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}
	if set.Len() != 1 {
		t.Fatalf("trace set grew after creation: %d radios", set.Len())
	}
	if got := len(ts.Radios()); got != 2 {
		t.Fatalf("tail set radios = %d, want 2", got)
	}
	// meta/unknown files in the directory are ignored by Scan.
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}
}

// liveRecord is radio 4's record stamped us.
func liveRecord(us int64) Record {
	return Record{LocalUS: us, RadioID: 4, Frame: []byte{byte(us), byte(us >> 8), byte(us >> 16), 7}, Flags: FlagFCSOK}
}

// TestTailOpenSegmentReadable: records written through a DirRotatingWriter
// inside one segment period and never Closed are readable block by block —
// a tail reader returns every record of every closed block, then parks;
// there is no seal marker anywhere.
func TestTailOpenSegmentReadable(t *testing.T) {
	dir := t.TempDir()
	w := NewDirRotatingWriter(dir, 4, 60_000_000)
	// 1 s at 10 ms spacing: ten block ages, nine closed blocks of ten
	// records, the tenth block pending in the writer.
	for us := int64(0); us < 1_000_000; us += 10_000 {
		if err := w.WriteRecord(liveRecord(us)); err != nil {
			t.Fatal(err)
		}
	}
	ts := NewTailSet(dir)
	if n := ts.SealedSegments(4); n != 0 {
		t.Fatalf("%d sealed segments before Close", n)
	}
	f := follow(ts, 4)
	got := f.untilParked(t, ts, 0)
	if len(got) != 90 || got[0] != 0 || got[89] != 890_000 {
		t.Fatalf("read %d records of the open segment (last %v), want the 90 in closed blocks", len(got), got[max(0, len(got)-1):])
	}
	if c := ts.Counters(); c.OpenBlocks != 9 || c.SealedBlocks != 0 {
		t.Fatalf("counters = %+v, want 9 open blocks", c)
	}
	// Close writes the pending block and seals; the reader picks it up and
	// parks again at the segment that does not exist yet.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}
	if got := f.untilParked(t, ts, 1); len(got) != 10 || got[9] != 990_000 {
		t.Fatalf("after the seal read %v, want the last block's ten records", got)
	}
	ts.Finish()
	if got, err := f.untilEnd(t); err != io.EOF || len(got) != 0 {
		t.Fatalf("end of capture: %d records, err %v", len(got), err)
	}
}

// readable is what a tailer can read of radio's capture in dir right now.
func readable(t *testing.T, dir string, radio int32) []int64 {
	t.Helper()
	ts := NewTailSet(dir)
	ts.Finish()
	rc, err := ts.TraceSet().Open(radio)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	recs, err := ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return stamps(recs)
}

// TestTailAvailabilityBound is the property the live lag rests on, in trace
// time: once the writer has accepted a record stamped t, every earlier
// record of that radio stamped before t − LiveBlockUS is readable, across
// block closes and segment rotations alike.
func TestTailAvailabilityBound(t *testing.T) {
	dir := t.TempDir()
	w := NewDirRotatingWriter(dir, 4, 1_000_000)
	gaps := []int64{3_000, 17_000, 41_000, 97_000, 5_000, 230_000, 1_000, 99_999, 100_000, 60_000}
	var written []int64
	for i, us := 0, int64(500); us < 4_000_000; i, us = i+1, us+gaps[i%len(gaps)] {
		if err := w.WriteRecord(liveRecord(us)); err != nil {
			t.Fatal(err)
		}
		written = append(written, us)
		got := readable(t, dir, 4)
		for j, u := range got {
			if u != written[j] {
				t.Fatalf("after t=%d: readable[%d] = %d, written %d", us, j, u, written[j])
			}
		}
		if len(got) < len(written) && written[len(got)] < us-LiveBlockUS {
			t.Fatalf("after t=%d: the record stamped %d is %d us old and not readable", us, written[len(got)], us-written[len(got)])
		}
	}
	if w.Segments() < 4 {
		t.Fatalf("only %d segments: rotation did not engage", w.Segments())
	}
}

// TestTailTornTail: a capture that ends with a valid header and half a
// payload at the end of an unsealed segment delivers the complete blocks
// and a clean EOF; the torn bytes are counted, not an error.
func TestTailTornTail(t *testing.T) {
	dir := t.TempDir()
	w := NewDirRotatingWriter(dir, 4, 60_000_000)
	for us := int64(0); us <= 300_000; us += 20_000 {
		if err := w.WriteRecord(liveRecord(us)); err != nil {
			t.Fatal(err)
		}
	}
	// Three closed blocks of five records are in the file. The crash: the
	// fourth got as far as its header and half its payload.
	blk := segmentBytes(t, []Record{liveRecord(310_000), liveRecord(320_000), liveRecord(330_000)})
	torn := blk[:block.HeaderLen+(len(blk)-block.HeaderLen)/2]
	appendFile(t, SegmentTracePath(dir, 4, 0), torn)

	ts := NewTailSet(dir)
	ts.Finish()
	src := ts.TraceSet().Source(4)
	var got []int64
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d records: %v", len(got), err)
		}
		got = append(got, rec.LocalUS)
	}
	if len(got) != 15 || got[14] != 280_000 {
		t.Fatalf("read %d records (last %v), want the 15 of the complete blocks", len(got), got[max(0, len(got)-1):])
	}
	if err := src.Err(); err != nil {
		t.Fatalf("RadioSource.Err() = %v, want nil", err)
	}
	if c := ts.Counters(); c.TornBytes != int64(len(torn)) || c.OpenBlocks != 3 {
		t.Fatalf("counters = %+v, want %d torn bytes after 3 open blocks", c, len(torn))
	}
}

// TestTailSealRace: the seal marker is created after the last block, so a
// reader parked at the end of an unsealed segment, woken to find both a new
// final block and the marker, reads the block before it moves on.
func TestTailSealRace(t *testing.T) {
	dir := t.TempDir()
	first := segmentBytes(t, tailRecords(3, 0))
	last := segmentBytes(t, tailRecords(2, 500_000))
	if err := os.WriteFile(SegmentTracePath(dir, 1, 0), first, 0o644); err != nil {
		t.Fatal(err)
	}
	writeSealedSegment(t, dir, 1, 1, tailRecords(2, 1_000_000))

	ts := NewTailSet(dir)
	f := follow(ts, 1)
	if got := f.untilParked(t, ts, 0); len(got) != 3 {
		t.Fatalf("read %d records of the unsealed segment, want 3", len(got))
	}
	appendFile(t, SegmentTracePath(dir, 1, 0), last)
	markSealed(t, dir, 1, 0)
	if _, err := ts.Scan(); err != nil {
		t.Fatal(err)
	}
	got := f.untilParked(t, ts, 1)
	want := []int64{500_000, 501_000, 1_000_000, 1_001_000}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the seal read %v, want %v: the final block, then the next segment", got, want)
	}
	ts.Finish()
	if _, err := f.untilEnd(t); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// TestTailGapNeverSkipped: at the end of capture an unsealed segment still
// holds its sealed successor back — its own whole blocks are delivered,
// nothing after them.
func TestTailGapNeverSkipped(t *testing.T) {
	dir := t.TempDir()
	writeSealedSegment(t, dir, 1, 0, tailRecords(2, 0))
	stalled := segmentBytes(t, tailRecords(2, 1_000_000))
	if err := os.WriteFile(SegmentTracePath(dir, 1, 1), stalled, 0o644); err != nil {
		t.Fatal(err)
	}
	writeSealedSegment(t, dir, 1, 2, tailRecords(2, 2_000_000))

	want := []int64{0, 1_000, 1_000_000, 1_001_000}
	if got := readable(t, dir, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, want %v: segment 2 waits for segment 1's seal marker", got, want)
	}
}

// TestTailFinishUnblocksParkedReader: Finish ends a parked reader's stream
// cleanly and its goroutine with it. Run with -race -count=5.
func TestTailFinishUnblocksParkedReader(t *testing.T) {
	dir := t.TempDir()
	writeSealedSegment(t, dir, 1, 0, tailRecords(3, 0))
	before := runtime.NumGoroutine()
	ts := NewTailSet(dir)
	f := follow(ts, 1)
	f.untilParked(t, ts, 0)
	ts.Finish()
	if _, err := f.untilEnd(t); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	ts.Finish() // idempotent
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the reader started", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
	}
}

// TestDirRotatingWriterIndexDescribesBlocks walks each live segment's block
// frames: they tile the file exactly, a second of records closes a block
// per LiveBlockUS, every block reads back as the records its header counts
// from the stamp it names, and a time-closed block ends at the record before
// the one that closed it.
func TestDirRotatingWriterIndexDescribesBlocks(t *testing.T) {
	dir := t.TempDir()
	w := NewDirRotatingWriter(dir, 4, 1_000_000)
	written := 0
	for us := int64(0); us < 3_000_000; us += 7_000 {
		if err := w.WriteRecord(liveRecord(us)); err != nil {
			t.Fatal(err)
		}
		written++
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	read := 0
	for seg := 0; seg < w.Segments(); seg++ {
		data, err := os.ReadFile(SegmentTracePath(dir, 4, seg))
		if err != nil {
			t.Fatal(err)
		}
		hdrs := blockHeaders(t, data)
		if len(hdrs) < 9 {
			t.Fatalf("segment %d: %d blocks for a second of records, want one per LiveBlockUS", seg, len(hdrs))
		}
		var off int
		lastUS := int64(-1)
		for i, h := range hdrs {
			end := off + block.HeaderLen + int(h.CompLen)
			recs, err := ReadAll(bytes.NewReader(data[off:end]))
			if err != nil {
				t.Fatalf("segment %d block %d: %v", seg, i, err)
			}
			off, read = end, read+len(recs)
			first, last := recs[0].LocalUS, recs[len(recs)-1].LocalUS
			if len(recs) != int(h.Count) || first != h.FirstUS {
				t.Fatalf("segment %d block %d: header says %d records from %d, block holds %d records from %d", seg, i,
					h.Count, h.FirstUS, len(recs), first)
			}
			if first <= lastUS || last-first >= LiveBlockUS {
				t.Fatalf("segment %d block %d spans %d..%d after a block ending %d", seg, i, first, last, lastUS)
			}
			lastUS = last
		}
	}
	if read != written {
		t.Fatalf("segments hold %d records, %d were written", read, written)
	}
}

// TestTailBlockLargerThanBuffer: a block several times the reader's starting
// buffer reads back whole. Each block is one unsnapped, incompressible 60 KB
// frame: a block closes on the record that passes block.Target, however far,
// and 64 KB blocks written by earlier releases must read too.
func TestTailBlockLargerThanBuffer(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	recs := make([]Record, 20)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetSnapLen(0)
	for i := range recs {
		recs[i] = liveRecord(int64(i) * 1000)
		recs[i].Frame = make([]byte, 60_000)
		rng.Read(recs[i].Frame)
		if err := w.WriteRecord(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SegmentTracePath(dir, 4, 0), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	markSealed(t, dir, 4, 0)
	if h := blockHeaders(t, buf.Bytes())[0]; h.CompLen < 3*tailBufSize {
		t.Fatalf("first block is %d bytes; want several tailBufSize", h.CompLen)
	}
	if got := readable(t, dir, 4); !reflect.DeepEqual(got, stamps(recs)) {
		t.Fatalf("read %d of %d records", len(got), len(recs))
	}
}
