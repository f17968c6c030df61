package block

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzDecompress: arbitrary bytes decoded into an arbitrary claimed length
// (up to 64 KB, the block size earlier releases wrote and this one still
// reads) never panic, never touch memory past the
// destination, and return nil only when every destination byte was
// written — checked by decoding twice over different fill bytes: any byte
// the decoder skipped would differ between the two.
func FuzzDecompress(f *testing.F) {
	var tbl Table
	for _, src := range corpus() {
		if len(src) <= 64<<10 {
			f.Add(Compress(nil, src, &tbl), uint16(len(src)))
			f.Add(Compress(nil, src, &tbl), uint16(len(src)+1))
		}
	}
	f.Add([]byte{0x11, 'a', 1, 0, 0x00}, uint16(6))
	f.Add([]byte{0x1f, 'a', 1, 0, 255, 255, 10, 0x00}, uint16(540))
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, src []byte, n uint16) {
		const guard = 64
		decode := func(fill byte) ([]byte, error) {
			buf := bytes.Repeat([]byte{fill}, int(n)+guard)
			err := Decompress(buf[:n], src)
			for _, b := range buf[n:] {
				if b != fill {
					t.Fatal("decoder wrote past the destination")
				}
			}
			return buf[:n], err
		}
		a, errA := decode(0x00)
		b, errB := decode(0xff)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("outcome depends on the destination's contents: %v / %v", errA, errB)
		}
		if errA == nil && !bytes.Equal(a, b) {
			t.Fatal("nil error, but not every destination byte was written")
		}
	})
}

// FuzzParseHeader: ParseHeader and Reader apply one rule to a header. What
// ParseHeader accepts is within the caps, round-trips the fields, and gets
// Reader as far as the payload; what it rejects, Reader rejects with the
// same words, before reading or allocating anything for the payload.
func FuzzParseHeader(f *testing.F) {
	hdr := func(magic string, compLen, rawLen uint32) []byte {
		b := append([]byte(magic), make([]byte, HeaderLen-4)...)
		binary.LittleEndian.PutUint32(b[4:], compLen)
		binary.LittleEndian.PutUint32(b[8:], rawLen)
		return b
	}
	blocks, _ := writeBlocks(f, [][]byte{[]byte("a record"), []byte("another")})
	f.Add(blocks[:HeaderLen])
	f.Add(hdr("TEST", 10, 2550))       // the most a payload can expand to
	f.Add(hdr("TEST", 10, 2551))       // one byte more
	f.Add(hdr("TEST", MaxLen+1, 1))    // a 64 MB wait
	f.Add(hdr("TEST", 1, MaxLen+1))    // a 64 MB allocation
	f.Add(hdr("TEST", 0xffffffff, 16)) // negative as an int32
	f.Add(hdr("TESS", 10, 10))         // another version
	f.Add(hdr("XXXX", 10, 10))

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < HeaderLen {
			return
		}
		b = b[:HeaderLen]
		h, err := ParseHeader(b, testMagic)
		_, rerr := NewReader(bytes.NewReader(b), testMagic, "test").Rest()
		if err != nil {
			if rerr == nil || rerr.Error() != "test: "+err.Error() {
				t.Fatalf("ParseHeader: %v; Reader: %v", err, rerr)
			}
			return
		}
		if h.CompLen < 0 || h.CompLen > MaxLen || h.RawLen < 0 || h.RawLen > MaxLen || int64(h.RawLen) > 255*int64(h.CompLen) {
			t.Fatalf("accepted a header claiming %d/%d bytes", h.CompLen, h.RawLen)
		}
		if uint32(h.CompLen) != binary.LittleEndian.Uint32(b[4:]) || uint32(h.Count) != binary.LittleEndian.Uint32(b[12:]) ||
			uint64(h.FirstUS) != binary.LittleEndian.Uint64(b[16:]) {
			t.Fatalf("header %x parsed as %+v", b, h)
		}
		if h.CompLen > 0 && (rerr == nil || !strings.Contains(rerr.Error(), "truncated block")) {
			t.Fatalf("accepted header, no payload: Reader said %v, want a truncated block", rerr)
		}
	})
}
