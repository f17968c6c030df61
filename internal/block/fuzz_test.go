package block

import (
	"bytes"
	"testing"
)

// FuzzDecompress: arbitrary bytes decoded into an arbitrary claimed length
// (up to the 64 KB block target) never panic, never touch memory past the
// destination, and return nil only when every destination byte was
// written — checked by decoding twice over different fill bytes: any byte
// the decoder skipped would differ between the two.
func FuzzDecompress(f *testing.F) {
	var tbl Table
	for _, src := range corpus() {
		if len(src) <= Target {
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
