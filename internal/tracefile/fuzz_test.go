package tracefile

import (
	"bytes"
	"io"
	"testing"
)

// validTraceBytes serializes a small representative trace for the seed
// corpus.
func validTraceBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	recs := []Record{
		{LocalUS: 100, RadioID: 1, Channel: 1, RSSIdBm: -40, Rate: 20,
			Flags: FlagFCSOK, Frame: []byte("hello frame bytes")},
		{LocalUS: 220, RadioID: 1, Channel: 1, RSSIdBm: -77, Rate: 10,
			Frame: bytes.Repeat([]byte{0xab}, 300), OrigLen: 1400},
		{LocalUS: 230, RadioID: 1, Channel: 1, RSSIdBm: -90, Flags: FlagPhyErr},
	}
	if err := WriteAll(&buf, recs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader: arbitrary bytes through the block reader must terminate with
// a record stream or an error — never panic, never balloon memory off a
// corrupt header.
func FuzzReader(f *testing.F) {
	valid := validTraceBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])      // truncated mid-block
	f.Add(valid[:23])                // truncated block header
	f.Add(append([]byte("JIG2"), 0)) // magic then garbage
	f.Add(bytes.Repeat([]byte{0}, 64))
	corrupt := append([]byte(nil), valid...)
	corrupt[30] ^= 0xff // damage the compressed payload
	f.Add(corrupt)
	huge := append([]byte(nil), valid...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0x7f // absurd compLen
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1<<20; i++ {
			rec, err := r.Next()
			if err != nil {
				// Errors must be sticky: the reader stays failed.
				if _, err2 := r.Next(); err2 == nil {
					t.Fatal("reader recovered after error")
				}
				return
			}
			if len(rec.Frame) > 0 && rec.Frame == nil {
				t.Fatal("impossible frame state")
			}
		}
		t.Fatal("reader never terminated")
	})
}

// FuzzRoundTrip: records written must read back identically regardless of
// the fuzzer's choice of content and snap behaviour.
func FuzzRoundTrip(f *testing.F) {
	f.Add(int64(12345), []byte("frame"), uint16(0))
	f.Add(int64(-1), []byte{}, uint16(999))
	f.Fuzz(func(t *testing.T, us int64, frame []byte, origLen uint16) {
		if len(frame) > DefaultSnapLen {
			frame = frame[:DefaultSnapLen] // writer would snap; keep comparison simple
		}
		in := Record{LocalUS: us, RadioID: 7, Channel: 6, RSSIdBm: -50,
			Rate: 110, Flags: FlagFCSOK, OrigLen: origLen, Frame: frame}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []Record{in}); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		got, err := r.Next()
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if got.LocalUS != in.LocalUS || got.RadioID != in.RadioID ||
			got.Flags != in.Flags || !bytes.Equal(got.Frame, in.Frame) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, got)
		}
		wantOrig := origLen
		if wantOrig == 0 {
			wantOrig = uint16(len(frame))
		}
		if got.OrigLen != wantOrig {
			t.Fatalf("OrigLen = %d, want %d", got.OrigLen, wantOrig)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("expected EOF after one record, got %v", err)
		}
	})
}
