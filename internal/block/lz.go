// Package block is the one block container behind both of the repo's
// on-disk formats — per-radio captures (.jig, internal/tracefile) and the
// hierarchical merge's jframe streams (.jfs, internal/hmerge) — and the one
// codec inside it: a byte-oriented LZ77 with no entropy stage, the class the
// paper's jigdump picks (LZO, §3.3) because capture and merge must keep up
// with the air; a Huffman stage buys ~25–35 % smaller files and costs more
// CPU than unification itself. The bytes are the LZ4 block layout: a
// sequence is a token (high nibble literal count, low nibble match length
// − 4; a nibble of 15 is extended by 255-saturating bytes), the literals, a
// 2-byte little-endian match offset and the match-length extension; the
// final sequence is literals only. Lengths live in the frame (frame.go).
package block

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

const (
	tableBits = 13
	minMatch  = 4
	// The LZ4 end-of-block rules: the last match starts at least mfLimit
	// bytes before the end and the last lastLiterals bytes are literals.
	mfLimit      = 12
	lastLiterals = 5
	maxOffset    = 1<<16 - 1
	// skipTrigger sets how fast the match search strides through input
	// that is not compressing: the step grows by one every 2^skipTrigger
	// failed probes.
	skipTrigger = 6
)

// Table is the compressor's hash table: the last position seen for each
// 13-bit hash of four input bytes (32 KB). Compress clears it on entry, so
// the output depends on the input alone, never on what the table last saw.
type Table [1 << tableBits]int32

func hash(u uint32) uint32 { return (u * 2654435761) >> (32 - tableBits) }

// compressBound is the most Compress emits for n input bytes.
func compressBound(n int) int { return n + n/255 + 16 }

// Compress writes the compressed form of src into dst's storage (replaced if
// too small for the worst case) and returns it. t must not be nil.
func Compress(dst, src []byte, t *Table) []byte {
	n := len(src)
	dst = grow(dst, compressBound(n))
	di, anchor := 0, 0
	if n > mfLimit {
		*t = Table{}
		next, probes := 1, 1<<skipTrigger
		for {
			si := next
			next += probes >> skipTrigger
			probes++
			if next > n-mfLimit {
				break
			}
			u := binary.LittleEndian.Uint32(src[si:])
			h := hash(u)
			ref := int(t[h])
			t[h] = int32(si)
			if si-ref > maxOffset || binary.LittleEndian.Uint32(src[ref:]) != u {
				continue
			}
			for si > anchor && ref > 0 && src[si-1] == src[ref-1] {
				si--
				ref--
			}
			ml := minMatch + matchLen(src[si+minMatch:n-lastLiterals], src[ref+minMatch:])
			di = putSeq(dst, di, src[anchor:si], si-ref, ml)
			si += ml
			anchor = si
			if si > n-mfLimit {
				break
			}
			t[hash(binary.LittleEndian.Uint32(src[si-2:]))] = int32(si - 2)
			next, probes = si, 1<<skipTrigger
		}
	}
	return dst[:putSeq(dst, di, src[anchor:], 0, 0)]
}

// matchLen counts the leading bytes a and b share, eight at a time.
func matchLen(a, b []byte) int {
	if len(b) < len(a) {
		a = a[:len(b)]
	}
	n := 0
	for ; len(a)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// putSeq writes one sequence at dst[di:] — token, literals and, unless ml
// is 0 (the block's final sequence), the match — and returns the new end.
func putSeq(dst []byte, di int, lit []byte, off, ml int) int {
	tok := di
	dst[tok] = 0
	di = putLen(dst, tok, 4, di+1, len(lit))
	di += copy(dst[di:], lit)
	if ml == 0 {
		return di
	}
	dst[di], dst[di+1] = byte(off), byte(off>>8)
	return putLen(dst, tok, 0, di+2, ml-minMatch)
}

// putLen stores length n in the token's nibble at shift; one that does not
// fit reads 15 there and continues in 255-saturating bytes at dst[di:].
func putLen(dst []byte, tok int, shift uint, di, n int) int {
	if n < 15 {
		dst[tok] |= byte(n << shift)
		return di
	}
	dst[tok] |= 15 << shift
	for n -= 15; n >= 255; n -= 255 {
		dst[di] = 255
		di++
	}
	dst[di] = byte(n)
	return di + 1
}

// ErrCorrupt reports compressed bytes that are not a well-formed block of
// exactly the length the caller expected.
var ErrCorrupt = errors.New("block: corrupt compressed block")

// Decompress expands src into dst, sized by the caller to what the block
// should decode to. It fails unless src is well formed and fills dst
// exactly, and checks every literal run, offset and match length against
// both slices first: arbitrary input can neither panic nor write outside dst.
func Decompress(dst, src []byte) error {
	di, si := 0, 0
	for si < len(src) {
		tok := src[si]
		si++
		ll := int(tok >> 4)
		if ll < 15 && len(src)-si >= 16 && len(dst)-di >= 16 {
			// A short run with room to spare on both sides: move 16 bytes
			// whatever ll is. The excess lands inside dst, ahead of di, where
			// the sequences that follow overwrite it.
			s, d := src[si:si+16], dst[di:di+16]
			binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s))
			binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:]))
		} else {
			if ll == 15 {
				if ll, si = getExt(src, si, ll); si < 0 {
					return ErrCorrupt
				}
			}
			if ll > len(src)-si || ll > len(dst)-di {
				return ErrCorrupt
			}
			copy(dst[di:di+ll], src[si:si+ll])
		}
		di += ll
		si += ll
		if si == len(src) && di == len(dst) {
			return nil // the final literal run, landing exactly
		}
		if len(src)-si < 2 {
			return ErrCorrupt // no room for an offset; or the end, short of dst
		}
		off := int(src[si]) | int(src[si+1])<<8
		si += 2
		ml := int(tok & 15)
		if ml == 15 {
			if ml, si = getExt(src, si, ml); si < 0 {
				return ErrCorrupt
			}
		}
		ml += minMatch
		if off == 0 || off > di || ml > len(dst)-di {
			return ErrCorrupt
		}
		m, end := di-off, di+ml
		if off >= 8 && ml <= 32 && len(dst)-di >= 32 {
			// Short match, source at least a word behind: whole words, the
			// excess spilling ahead of end like the literals above. Each
			// word read ends at or before the word being written.
			s, d := dst[m:m+32], dst[di:di+32]
			binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s))
			binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:]))
			if ml > 16 {
				binary.LittleEndian.PutUint64(d[16:], binary.LittleEndian.Uint64(s[16:]))
				binary.LittleEndian.PutUint64(d[24:], binary.LittleEndian.Uint64(s[24:]))
			}
			di = end
		}
		// Any other match may overlap its own output (offset < length repeats
		// the last off bytes): each pass copies what is already final,
		// doubling the finished run, so copy never reads an unwritten byte.
		for di < end {
			di += copy(dst[di:end], dst[m:di])
		}
	}
	return ErrCorrupt // ended on a match, or empty: no final literal run
}

// getExt adds a length's extension bytes to n (at most 255 per source byte,
// so it cannot overflow); si < 0 reports a truncated extension.
func getExt(src []byte, si, n int) (int, int) {
	for si < len(src) {
		b := src[si]
		si++
		n += int(b)
		if b != 255 {
			return n, si
		}
	}
	return n, -1
}
