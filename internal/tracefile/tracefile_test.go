package tracefile

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func sample(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	ts := int64(0)
	for i := range recs {
		ts += rng.Int63n(10_000)
		var frame []byte
		flags := uint8(0)
		switch rng.Intn(3) {
		case 0:
			frame = make([]byte, 14+rng.Intn(180))
			rng.Read(frame)
			flags = FlagFCSOK
		case 1:
			frame = make([]byte, 14+rng.Intn(180))
			rng.Read(frame)
		case 2:
			flags = FlagPhyErr
		}
		recs[i] = Record{
			LocalUS: ts, RadioID: int32(rng.Intn(156)),
			Channel: uint8([]int{1, 6, 11}[rng.Intn(3)]),
			RSSIdBm: int8(-30 - rng.Intn(60)),
			Rate:    uint16(rng.Intn(540)), Flags: flags,
			OrigLen: uint16(len(frame)), Frame: frame,
		}
	}
	return recs
}

func TestRoundTripSmall(t *testing.T) {
	recs := sample(10, 1)
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("round trip mismatch")
	}
}

// blockHeaders walks a trace stream's block frames and returns their
// headers, failing the test on a malformed or truncated frame.
func blockHeaders(t *testing.T, data []byte) []block.Header {
	t.Helper()
	var hdrs []block.Header
	for off := 0; off < len(data); {
		h, err := block.ParseHeader(data[off:], magic)
		if err != nil {
			t.Fatalf("block at offset %d: %v", off, err)
		}
		hdrs = append(hdrs, h)
		off += block.HeaderLen + int(h.CompLen)
		if off > len(data) {
			t.Fatalf("block %d runs past the end of the stream", len(hdrs)-1)
		}
	}
	return hdrs
}

func TestRoundTripMultiBlock(t *testing.T) {
	recs := sample(5000, 2) // several blocks
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if n := len(blockHeaders(t, buf.Bytes())); n < 2 {
		t.Fatalf("expected multiple blocks, got %d", n)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("multi-block round trip mismatch")
	}
}

func TestSnapLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	big := make([]byte, 1500)
	if err := w.WriteRecord(Record{LocalUS: 1, Frame: big, Flags: FlagFCSOK}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Frame) != DefaultSnapLen {
		t.Errorf("frame len = %d, want snap %d", len(got[0].Frame), DefaultSnapLen)
	}
}

func TestSnapLenZeroUnlimited(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.SetSnapLen(0)
	big := make([]byte, 1500)
	w.WriteRecord(Record{LocalUS: 1, Frame: big})
	w.Close()
	got, _ := ReadAll(&buf)
	if len(got[0].Frame) != 1500 {
		t.Errorf("frame len = %d, want 1500", len(got[0].Frame))
	}
}

func TestCompressionShrinksRedundantData(t *testing.T) {
	// Beacon-like highly repetitive frames should compress well.
	frame := bytes.Repeat([]byte{0xAB}, 200)
	var recs []Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, Record{LocalUS: int64(i) * 100, Frame: frame, Flags: FlagFCSOK})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	raw := len(recs) * (20 + len(frame))
	if buf.Len() >= raw/4 {
		t.Errorf("compressed %d bytes of %d raw; expected ≥4x shrink", buf.Len(), raw)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("empty trace should produce no output")
	}
	recs, err := ReadAll(&buf)
	if err != nil || len(recs) != 0 {
		t.Errorf("reading empty trace: %v, %d recs", err, len(recs))
	}
}

func TestWriterClosedRejects(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Close()
	if err := w.WriteRecord(Record{}); err == nil {
		t.Error("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestReaderBadMagic(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader([]byte("XXXXGARBAGEGARBAGEGARBAGE"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestReaderTruncatedBlock(t *testing.T) {
	recs := sample(100, 6)
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	_, err := ReadAll(bytes.NewReader(cut))
	if err == nil || err == io.EOF {
		t.Errorf("truncated stream returned %v, want hard error", err)
	}
}

func TestPhyErrRecordsHaveNoFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteRecord(Record{LocalUS: 5, Flags: FlagPhyErr})
	w.Close()
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].IsPhyErr() || got[0].FCSOK() || got[0].Frame != nil {
		t.Errorf("phy error record mangled: %+v", got[0])
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(ts int64, radio int32, ch, rssi, flags uint8, rate uint16, frame []byte) bool {
		if len(frame) > 65535 {
			frame = frame[:65535]
		}
		rec := Record{
			LocalUS: ts, RadioID: radio, Channel: ch, RSSIdBm: int8(rssi),
			Rate: rate, Flags: flags, OrigLen: uint16(len(frame)), Frame: frame,
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.SetSnapLen(0)
		if w.WriteRecord(rec) != nil {
			return false
		}
		if w.Close() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		if len(frame) == 0 {
			// nil and empty both decode as nil
			return g.LocalUS == ts && g.RadioID == radio && len(g.Frame) == 0
		}
		return reflect.DeepEqual(g, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// deflated is what the JIG1/.jfs-v1 writers put after a block header.
func deflated(t *testing.T, raw []byte) []byte {
	t.Helper()
	var comp bytes.Buffer
	fw, err := flate.NewWriter(&comp, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return comp.Bytes()
}

// TestV1Rejected: a DEFLATE-era trace is refused with the version
// error — there is no fallback reader, and it must not be misparsed.
func TestV1Rejected(t *testing.T) {
	raw := make([]byte, recHdrLen) // one frameless record
	comp := deflated(t, raw)
	v1 := []byte("JIG1")
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(comp)))
	v1 = binary.LittleEndian.AppendUint32(v1, uint32(len(raw)))
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 0)
	v1 = append(v1, comp...)
	r := NewReader(bytes.NewReader(v1))
	if _, err := r.Next(); !errors.Is(err, block.ErrVersion) {
		t.Errorf("JIG1 trace: got %v, want block.ErrVersion", err)
	}
	if _, err := r.Next(); !errors.Is(err, block.ErrVersion) {
		t.Errorf("version error not sticky: %v", err)
	}
}

// TestSteadyStateAllocs: with flatepool gone the codec state lives in the
// Writer and the Reader; once each has handled a block, writing and reading
// further blocks allocates nothing, so
// the 156-radio replay writer and jigd's tailers hold their heap flat.
func TestSteadyStateAllocs(t *testing.T) {
	recs := sample(4000, 9) // several blocks
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	w := NewWriter(io.Discard)
	// One run after AllocsPerRun's own warm-up run: an exact count, not an
	// average that rounds a stray allocation away.
	if n := testing.AllocsPerRun(1, func() {
		for i := range recs {
			if err := w.WriteRecord(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("WriteRecord: %v allocs per %d records, want 0", n, len(recs))
	}

	rc, err := BufferSource(buf.Bytes()).Open()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(rc)
	if n := testing.AllocsPerRun(1, func() { // warm-up and run read half each
		for i := 0; i < len(recs)/2; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("Reader.Next: %v allocs per %d records, want 0", n, len(recs)/2)
	}
}
