package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The frame. Both formats are a sequence of blocks, each a 24-byte
// little-endian header and a compressed payload:
//
//	magic [4]byte · compLen u32 · rawLen u32 · count u32 · firstUS i64
//
// compLen payload bytes follow and decode to exactly rawLen bytes holding
// count records, the first stamped firstUS; what they mean is the record
// layer's business. A stream ends cleanly only on a block boundary.
const (
	HeaderLen = 24
	// Target is the raw size at which writers flush a block. jigdump writes
	// 64 KB blocks (§3.3), and a capture writer holds one block; the merge
	// decodes one block for every radio at once, so there the block is
	// per-radio residency, and the size is chosen for the merge. The sweep,
	// as .jig bytes of a 20 s paper-scale capture (156 radios) against the
	// peak live heap of core's TestStreamingResidentHeap: 8 KB +7.0 % /
	// 6.9 MB, 16 KB +3.4 % / 8.4 MB, 32 KB +1.3 % / 11.6 MB, 64 KB 14.0 MB /
	// 17.3 MB. 16 KB gives back most of the heap for a few percent of bytes.
	// Readers take any size up to MaxLen, so 64 KB blocks written earlier
	// still read.
	Target = 16 * 1024
	// MaxLen bounds the compressed and raw size a header may claim: blocks
	// flush around Target plus one record, and honoring a corrupt or hostile
	// header would turn 24 bytes into a multi-gigabyte allocation.
	MaxLen = 1 << 26
)

// Header is what a written block's frame said about it.
type Header struct {
	CompLen, RawLen, Count int32
	FirstUS                int64
}

// Writer accumulates one block of records and emits it framed and
// compressed. The record layer appends each record's bytes to Raw and then
// calls Commit. All storage — Raw, the compressed scratch, the codec's Table
// (allocated at the first flush) — is reused for every block, so a
// steady-state flush allocates nothing. Not safe for concurrent use.
type Writer struct {
	Raw []byte // the pending block's records

	w       io.Writer
	magic   [4]byte
	count   int32
	firstUS int64
	out     []byte // the emitted block: header, then the compressed payload
	tbl     *Table
}

// NewWriter returns a block writer emitting to w under the given magic.
func NewWriter(w io.Writer, magic [4]byte) *Writer { return &Writer{w: w, magic: magic} }

// Commit counts the bytes appended to Raw since the last call as one
// record stamped us, and reports whether the block has reached Target and
// should be flushed.
func (w *Writer) Commit(us int64) bool {
	if w.count == 0 {
		w.firstUS = us
	}
	w.count++
	return len(w.Raw) >= Target
}

// Flush compresses the pending block and emits it in one Write, so a reader
// of a file written without buffering sees whole blocks; it returns the
// block's header. An empty block emits nothing and returns the zero Header.
func (w *Writer) Flush() (Header, error) {
	if w.count == 0 {
		return Header{}, nil
	}
	if w.tbl == nil {
		w.tbl = new(Table)
	}
	w.out = grow(w.out, HeaderLen+compressBound(len(w.Raw)))
	comp := Compress(w.out[HeaderLen:], w.Raw, w.tbl) // fits, so in place
	h := Header{CompLen: int32(len(comp)), RawLen: int32(len(w.Raw)), Count: w.count, FirstUS: w.firstUS}
	copy(w.out[0:4], w.magic[:])
	binary.LittleEndian.PutUint32(w.out[4:8], uint32(h.CompLen))
	binary.LittleEndian.PutUint32(w.out[8:12], uint32(h.RawLen))
	binary.LittleEndian.PutUint32(w.out[12:16], uint32(h.Count))
	binary.LittleEndian.PutUint64(w.out[16:24], uint64(h.FirstUS))
	if _, err := w.w.Write(w.out[:HeaderLen+len(comp)]); err != nil {
		return Header{}, err
	}
	w.Raw, w.count = w.Raw[:0], 0
	return h, nil
}

// grow returns b resized to n, replacing storage that is too small — with
// headroom, so blocks that differ in size by a record settle on one buffer.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n, n+n/8)
	}
	return b[:n]
}

// Slicer is implemented by inputs that can expose the next n bytes of the
// stream as a zero-copy view valid until the input is closed (mapped files,
// in-memory buffers). Reader decodes straight out of such a view.
type Slicer interface {
	Slice(n int) ([]byte, error)
}

// Reader walks a stream's records: it decodes one block at a time into a
// reused buffer and keeps the record layer's place in it. The first error,
// the block layer's or one the record layer reports with Fail, is returned
// from then on.
type Reader struct {
	r      io.Reader
	sl     Slicer // non-nil when r supports zero-copy block reads
	magic  [4]byte
	format string          // prefixes the block layer's errors: "tracefile", "hmerge"
	hdr    [HeaderLen]byte // a field, so handing it to ReadFull allocates nothing
	comp   []byte          // reused compressed-block staging (unused with a Slicer)
	raw    []byte          // reused decoded block
	rest   []byte          // what the record layer has not consumed of raw
	err    error
}

// NewReader returns a block reader over r expecting the given magic.
func NewReader(r io.Reader, magic [4]byte, format string) *Reader {
	t := &Reader{r: r, magic: magic, format: format}
	t.sl, _ = r.(Slicer)
	return t
}

// Rest returns the unconsumed bytes of the current block, decoding the next
// block first when there are none; they stay valid until the Rest call
// after they are all skipped. io.EOF, returned bare, means the stream
// ended on a block boundary.
func (t *Reader) Rest() ([]byte, error) {
	for len(t.rest) == 0 && t.err == nil {
		if t.rest, t.err = t.next(); t.err != nil && t.err != io.EOF {
			t.err = fmt.Errorf("%s: %w", t.format, t.err)
		}
	}
	return t.rest, t.err
}

// Skip consumes n bytes of what Rest returned.
func (t *Reader) Skip(n int) { t.rest = t.rest[n:] }

// Fail makes err the reader's permanent state and returns it.
func (t *Reader) Fail(err error) error {
	t.rest, t.err = nil, err
	return err
}

// ErrVersion marks a file in a format version this release does not read
// (a DEFLATE-era .jig or .jfs). There is no fallback reader.
var ErrVersion = errors.New("unsupported format version; regenerate the file with this release")

// CheckMagic compares four bytes read from a file with the magic expected
// there. A magic's last byte is the format's version, so a mismatch in it
// alone is ErrVersion.
func CheckMagic(got, want [4]byte) error {
	switch {
	case got == want:
		return nil
	case [3]byte(got[:3]) == [3]byte(want[:3]):
		return fmt.Errorf("magic %q, want %q: %w", string(got[:]), string(want[:]), ErrVersion)
	}
	return fmt.Errorf("bad magic %q", string(got[:]))
}

// ParseHeader decodes the HeaderLen bytes at the front of bh, whose payload
// is the next h.CompLen bytes. The magic must match and the claimed lengths
// pass the caps: no caller allocates, or waits for, what a hostile header asks.
func ParseHeader(bh []byte, magic [4]byte) (h Header, err error) {
	if err := CheckMagic([4]byte(bh[0:4]), magic); err != nil {
		return h, err
	}
	compLen := binary.LittleEndian.Uint32(bh[4:8])
	rawLen := binary.LittleEndian.Uint32(bh[8:12])
	// No payload expands more than 255×: a length byte buys at most 255.
	if compLen > MaxLen || rawLen > MaxLen || uint64(rawLen) > 255*uint64(compLen) {
		return h, fmt.Errorf("block header claims %d/%d bytes", compLen, rawLen)
	}
	return Header{CompLen: int32(compLen), RawLen: int32(rawLen),
		Count: int32(binary.LittleEndian.Uint32(bh[12:16])), FirstUS: int64(binary.LittleEndian.Uint64(bh[16:24]))}, nil
}

// next reads and decodes the next block. Claimed lengths are capped before
// anything is allocated, and the payload must decode to exactly rawLen.
func (t *Reader) next() ([]byte, error) {
	if _, err := io.ReadFull(t.r, t.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("truncated block header: %w", err)
		}
		return nil, err
	}
	h, err := ParseHeader(t.hdr[:], t.magic)
	if err != nil {
		return nil, err
	}
	var comp []byte
	if t.sl != nil {
		comp, err = t.sl.Slice(int(h.CompLen))
	} else {
		t.comp = grow(t.comp, int(h.CompLen))
		comp = t.comp
		_, err = io.ReadFull(t.r, comp)
	}
	if err != nil {
		return nil, fmt.Errorf("truncated block: %w", err)
	}
	t.raw = grow(t.raw, int(h.RawLen))
	if err := Decompress(t.raw, comp); err != nil {
		return nil, fmt.Errorf("%d-byte payload is not the %d bytes its header claims: %w", h.CompLen, h.RawLen, err)
	}
	return t.raw, nil
}
