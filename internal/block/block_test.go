package block

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// corpus builds the inputs the codec tests share: incompressible,
// low-entropy and self-similar data at sizes from empty to several times
// the 64 KB offset reach, including everything around the format's small
// thresholds (the 12-byte match-free tail, the 15 and 15+255 length
// nibbles).
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	lowEntropy := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcd"[rng.Intn(4)]
		}
		return b
	}
	// periodic repeats a short pattern: period < 4 forces matches that
	// overlap their own output, and long runs force 255-extension lengths.
	periodic := func(n, period int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i % period)
		}
		return b
	}
	out := map[string][]byte{}
	for _, n := range []int{0, 1, 4, 5, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 64, 254, 255, 256,
		269, 270, 271, 4096, 65535, 65536, 65537, 70000, 200000} {
		out[fmt.Sprintf("random/%d", n)] = random(n)
		out[fmt.Sprintf("lowentropy/%d", n)] = lowEntropy(n)
		for _, p := range []int{1, 2, 3, 7, 300} {
			out[fmt.Sprintf("periodic%d/%d", p, n)] = periodic(n, p)
		}
	}
	// Long literal runs (255-extension on the literal side) between matches
	// that reach back further than one block target.
	far := random(3000)
	out["far-match"] = append(append(append([]byte(nil), far...), lowEntropy(64000)...), far...)
	// Records as the formats write them: near-identical headers, varying tails.
	var recs []byte
	for i := 0; i < 3000; i++ {
		recs = append(recs, byte(i), byte(i>>8), 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 6, 0xd0, 110, 0, 1, 0, 40, 0, 24, 0)
		recs = append(recs, far[i%2000:i%2000+24]...)
	}
	out["records"] = recs
	return out
}

func TestRoundTrip(t *testing.T) {
	var tbl Table
	var comp []byte
	for name, src := range corpus() {
		comp = Compress(comp, src, &tbl)
		if bound := len(src) + len(src)/255 + 16; len(comp) > bound {
			t.Errorf("%s: %d compressed bytes exceed the %d bound", name, len(comp), bound)
		}
		dst := make([]byte, len(src))
		if err := Decompress(dst, comp); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(dst, src) {
			t.Errorf("%s: round trip changed the bytes", name)
		}
	}
}

// TestCompressShrinks: the codec is only worth its name if redundant input
// gets smaller and the 255-extensions keep long runs to a few bytes.
func TestCompressShrinks(t *testing.T) {
	c := corpus()
	var tbl Table
	for name, maxLen := range map[string]int{
		"periodic1/70000": 300, "periodic3/70000": 300, "periodic300/65536": 700,
		"lowentropy/65536": 65536 * 3 / 4, "records": len(c["records"]) * 3 / 4,
	} {
		if got := len(Compress(nil, c[name], &tbl)); got > maxLen {
			t.Errorf("%s: %d bytes compress to %d, want <= %d", name, len(c[name]), got, maxLen)
		}
	}
}

// TestDecompressExactLength: a destination one byte short or one byte long
// must fail — the frame's exact-length rule rests on this.
func TestDecompressExactLength(t *testing.T) {
	var tbl Table
	for name, src := range corpus() {
		comp := Compress(nil, src, &tbl)
		if len(src) > 0 {
			if err := Decompress(make([]byte, len(src)-1), comp); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: one byte short: %v", name, err)
			}
		}
		if err := Decompress(make([]byte, len(src)+1), comp); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: one byte long: %v", name, err)
		}
		if len(comp) > 1 {
			if err := Decompress(make([]byte, len(src)), comp[:len(comp)-1]); err == nil {
				t.Errorf("%s: truncated payload accepted", name)
			}
		}
	}
}

// TestCompressDeterministic: the same input gives the same bytes whatever
// the Table and the scratch last held — .jfs files are compared by hash.
func TestCompressDeterministic(t *testing.T) {
	c := corpus()
	var dirty Table
	scratch := Compress(nil, c["random/70000"], &dirty)
	for name, src := range c {
		want := append([]byte(nil), Compress(nil, src, new(Table))...)
		scratch = Compress(scratch, src, &dirty)
		if !bytes.Equal(scratch, want) {
			t.Errorf("%s: output depends on Table or scratch history", name)
		}
	}
}

func TestDecompressRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		src []byte
		n   int
	}{
		"empty":                   {nil, 0},
		"zero offset":             {[]byte{0x10, 'a', 0, 0, 0x00}, 5},
		"offset before start":     {[]byte{0x10, 'a', 2, 0, 0x00}, 5},
		"ends on a match":         {[]byte{0x10, 'a', 1, 0}, 5},
		"truncated offset":        {[]byte{0x10, 'a', 1}, 5},
		"truncated literals":      {[]byte{0x50, 'a'}, 5},
		"truncated literal ext":   {[]byte{0xf0, 255}, 300},
		"truncated match ext":     {[]byte{0x1f, 'a', 1, 0, 255}, 300},
		"match past destination":  {[]byte{0x1f, 'a', 1, 0, 255, 0, 0x00}, 100},
		"literal past destinaton": {[]byte{0x30, 'a', 'b', 'c'}, 2},
	} {
		if err := Decompress(make([]byte, tc.n), tc.src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
	// The smallest overlapping match, by hand: "a" then 5 more from offset 1.
	dst := make([]byte, 6)
	if err := Decompress(dst, []byte{0x11, 'a', 1, 0, 0x00}); err != nil || string(dst) != "aaaaaa" {
		t.Errorf("hand-built overlap: %q, %v", dst, err)
	}
}

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

// writeBlocks frames the given records (one Commit each, stamped with their
// index) and returns the stream and the headers Flush reported.
func writeBlocks(t testing.TB, recs [][]byte) ([]byte, []Header) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic)
	var hdrs []Header
	flush := func() {
		h, err := w.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if h.Count > 0 {
			hdrs = append(hdrs, h)
		}
	}
	for i, r := range recs {
		w.Raw = append(w.Raw, r...)
		if w.Commit(int64(i)) {
			flush()
		}
	}
	flush()
	flush() // an empty block emits nothing
	return buf.Bytes(), hdrs
}

// sliceStream is a zero-copy input: it implements Slicer.
type sliceStream struct {
	*bytes.Reader
	b []byte
}

func (s *sliceStream) Slice(n int) ([]byte, error) {
	off := len(s.b) - s.Len()
	if s.Len() < n {
		return nil, io.ErrUnexpectedEOF
	}
	if _, err := s.Seek(int64(n), io.SeekCurrent); err != nil {
		return nil, err
	}
	return s.b[off : off+n : off+n], nil
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var recs [][]byte
	var all []byte
	for i := 0; i < 3000; i++ {
		r := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(120))
		recs = append(recs, r)
		all = append(all, r...)
	}
	stream, hdrs := writeBlocks(t, recs)
	if len(hdrs) < 3 {
		t.Fatalf("want several blocks, got %d", len(hdrs))
	}
	var total, pos int
	for i, h := range hdrs {
		if string(stream[pos:pos+4]) != "TEST" {
			t.Fatalf("block %d does not start with the magic", i)
		}
		if i < len(hdrs)-1 && (h.RawLen < Target || h.RawLen > Target+120) {
			t.Errorf("block %d flushed at %d raw bytes", i, h.RawLen)
		}
		if h.FirstUS != int64(total) {
			t.Errorf("block %d firstUS %d, want %d", i, h.FirstUS, total)
		}
		total += int(h.Count)
		pos += HeaderLen + int(h.CompLen)
	}
	if total != len(recs) || pos != len(stream) {
		t.Fatalf("headers cover %d records / %d bytes of %d / %d", total, pos, len(recs), len(stream))
	}
	for name, in := range map[string]io.Reader{
		"copied": bytes.NewReader(stream),
		"sliced": &sliceStream{Reader: bytes.NewReader(stream), b: stream},
	} {
		r := NewReader(in, testMagic, "test")
		var got []byte
		for {
			// Consume in odd-sized bites, as a record layer would.
			rest, err := r.Rest()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n := min(len(rest), 1000)
			got = append(got, rest[:n]...)
			r.Skip(n)
		}
		if !bytes.Equal(got, all) {
			t.Errorf("%s: blocks do not concatenate to what was written", name)
		}
	}
}

func TestFrameRejects(t *testing.T) {
	valid, hdrs := writeBlocks(t, [][]byte{bytes.Repeat([]byte("jigsaw"), 2000), []byte("tail")})
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	put32 := func(off int, v uint32) func([]byte) {
		return func(b []byte) { b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24) }
	}
	rawLen := uint32(hdrs[0].RawLen)
	cases := map[string][]byte{
		"partial header":      valid[:HeaderLen-1],
		"header only":         valid[:HeaderLen],
		"partial payload":     valid[:len(valid)-1],
		"bad magic":           mut(func(b []byte) { b[0] = 'X' }),
		"other version":       mut(func(b []byte) { b[3] = 'S' }),
		"compLen over cap":    mut(put32(4, MaxLen+1)),
		"rawLen over cap":     mut(put32(8, MaxLen+1)),
		"rawLen over 255x":    mut(put32(8, 255*uint32(hdrs[0].CompLen)+1)),
		"rawLen one short":    mut(put32(8, rawLen-1)),
		"rawLen one long":     mut(put32(8, rawLen+1)),
		"compLen one short":   mut(put32(4, uint32(hdrs[0].CompLen)-1)),
		"payload offset zero": mut(func(b []byte) { b[HeaderLen+7], b[HeaderLen+8] = 0, 0 }),
	}
	for name, data := range cases {
		for _, in := range []io.Reader{bytes.NewReader(data), &sliceStream{Reader: bytes.NewReader(data), b: data}} {
			r := NewReader(in, testMagic, "test")
			_, err := r.Rest()
			if err == nil || err == io.EOF || !strings.HasPrefix(err.Error(), "test: ") {
				t.Errorf("%s: got %v, want a hard error naming the format", name, err)
			}
			if _, err2 := r.Rest(); err2 != err {
				t.Errorf("%s: error not sticky: %v then %v", name, err, err2)
			}
			if errors.Is(err, ErrVersion) != (name == "other version") {
				t.Errorf("%s: reported as %v", name, err)
			}
		}
	}
	r := NewReader(bytes.NewReader(nil), testMagic, "test")
	if _, err := r.Rest(); err != io.EOF {
		t.Errorf("empty stream: %v, want bare io.EOF", err)
	}
	mine := errors.New("record layer's own")
	if err := r.Fail(mine); err != mine {
		t.Errorf("Fail returned %v", err)
	}
	if _, err := r.Rest(); err != mine {
		t.Errorf("after Fail: %v", err)
	}
}

// TestSteadyStateAllocs: once a Writer has flushed and a Reader has decoded
// one block, further blocks allocate nothing — the Table, both scratch
// buffers and the header arrays all live in the structs.
func TestSteadyStateAllocs(t *testing.T) {
	rec := bytes.Repeat([]byte("0123456789abcdef"), 8)
	var buf bytes.Buffer
	w := NewWriter(&buf, testMagic)
	writeBlock := func() {
		for {
			w.Raw = append(w.Raw, rec...)
			if w.Commit(0) {
				break
			}
		}
		if _, err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		writeBlock()
	}
	stream := append([]byte(nil), buf.Bytes()...)
	w.w = io.Discard
	// One run after AllocsPerRun's own warm-up run: an exact count, not an
	// average that rounds a stray allocation away.
	if n := testing.AllocsPerRun(1, func() { writeBlock(); writeBlock(); writeBlock() }); n != 0 {
		t.Errorf("Writer: %v allocs in 3 blocks, want 0", n)
	}
	in := bytes.NewReader(stream)
	r := NewReader(in, testMagic, "test")
	if n := testing.AllocsPerRun(1, func() { // warm-up and run read 4 of the 8 blocks each
		for i := 0; i < 4; i++ {
			rest, err := r.Rest()
			if err != nil {
				t.Fatal(err)
			}
			r.Skip(len(rest))
		}
	}); n != 0 {
		t.Errorf("Reader: %v allocs in 4 blocks, want 0", n)
	}
}
