// Package hmerge implements the hierarchical merge's intermediate format
// and the global k-way merge over it: the two-level pipeline that takes
// Jigsaw from one building to a campus.
//
// Level 1 (Unify/UnifyDir): each per-building worker — a goroutine in this
// process or a separate cmd/jigunify process — bootstraps and unifies its
// building's trace directory exactly as core.RunFrom would, but instead of
// reconstructing exchanges it serializes the unifier's time-ordered stream to
// a sorted intermediate jframe stream plus a metadata sidecar (bootstrap
// offsets, unify stats, watermark). Unification is deterministic, so every
// worker produces byte-identical files for the same inputs regardless of
// where it runs.
//
// Level 2 (Merger): the global merge opens all buildings' streams and
// interleaves them into one canonically-ordered jframe sequence by
// (UnivUS, stream index) — valid because each stream is sorted
// non-decreasing by UnivUS, the unifier's output order, which the Writer
// enforces at encode time. core.RunHierarchical drives the
// ordinary reconstruction/transport/pass pipeline over that sequence.
//
// The container and codec are internal/block's, shared with the tracefile
// format: an LZO-class byte LZ, as the paper's jigdump, in blocks around
// block.Target (16 KB; streams written with 64 KB blocks read the same)
// behind a length-checked 24-byte frame (magic "JFSB",
// compLen, rawLen, jframe count, first UnivUS), so the reader streams one
// block at a time and no header can demand unbounded allocation. A stream
// is the 8 bytes "JFS1", version (2), three zeros, then blocks; a block's
// raw bytes are jframes back to back, little-endian:
//
//	flags u8 · channel u8 · rate u16 · wireLen u16 · nWire u16 · nInst u16 ·
//	univUS i64 · dispersionUS i64 · wire [nWire]byte ·
//	nInst × (radio i32 · localUS i64 · univUS i64 · rssi i8 · flags u8)
//
// Version 1 streams (the same jframes under DEFLATE) are rejected with
// block.ErrVersion, not read.
package hmerge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/block"
	"repro/internal/dot80211"
	"repro/internal/unify"
)

// Stream-level and block-level magic. The stream header is written once,
// ahead of the first block; every block repeats the block magic so a reader
// resynchronizing mid-file fails loudly instead of misparsing.
var (
	streamMagic = [4]byte{'J', 'F', 'S', '1'}
	blockMagic  = [4]byte{'J', 'F', 'S', 'B'}
)

// streamVersion is the stream header's version byte; 1 was the DEFLATE codec.
const streamVersion = 2

// jframe record flags.
const (
	flagValid   uint8 = 1 << 0
	flagPhyOnly uint8 = 1 << 1
)

// instance flags.
const (
	instFCSOK  uint8 = 1 << 0
	instPhyErr uint8 = 1 << 1
)

// recHdrLen and instLen are the fixed-size parts of the layout in the
// package comment: a jframe up to its wire bytes, and one instance.
const (
	recHdrLen = 26
	instLen   = 22
)

// instPrealloc caps the instance-slice preallocation per record: a jframe
// cannot have more instances than radios that heard it, so anything beyond
// a few hundred in a claimed count is corrupt input probing the allocator.
const instPrealloc = 256

// Writer serializes a sorted jframe stream. It enforces the format's
// ordering invariant — UnivUS non-decreasing — because the global merge is
// only correct over sorted inputs; an out-of-order write is a bug in the
// producer, reported as an error rather than silently breaking the merge.
type Writer struct {
	bw     *block.Writer
	closed bool
	// JFrames, FirstUnivUS and WatermarkUS accumulate over the whole stream
	// for the metadata sidecar: total records, the first UnivUS and the
	// last (= maximum) one.
	JFrames     int64
	FirstUnivUS int64
	WatermarkUS int64
}

// NewWriter starts a stream on w, emitting the stream header immediately.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [8]byte
	copy(hdr[0:4], streamMagic[:])
	hdr[4] = streamVersion
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("hmerge: stream header: %w", err)
	}
	return &Writer{bw: block.NewWriter(w, blockMagic)}, nil
}

// WriteJFrame appends one jframe, flushing a block when the target size is
// reached.
func (w *Writer) WriteJFrame(j *unify.JFrame) error {
	if w.closed {
		return errors.New("hmerge: writer closed")
	}
	if w.JFrames > 0 && j.UnivUS < w.WatermarkUS {
		return fmt.Errorf("hmerge: out-of-order jframe: %d after %d (stream must be sorted by UnivUS)",
			j.UnivUS, w.WatermarkUS)
	}
	if len(j.Wire) > int(^uint16(0)) || len(j.Instances) > int(^uint16(0)) || j.WireLen > int(^uint16(0)) {
		return fmt.Errorf("hmerge: jframe exceeds format limits (wire %d, instances %d)",
			len(j.Wire), len(j.Instances))
	}
	if w.JFrames == 0 {
		w.FirstUnivUS = j.UnivUS
	}
	w.WatermarkUS = j.UnivUS
	w.JFrames++
	var flags uint8
	if j.Valid {
		flags |= flagValid
	}
	if j.PhyOnly {
		flags |= flagPhyOnly
	}
	b := append(w.bw.Raw, flags, uint8(j.Channel))
	b = binary.LittleEndian.AppendUint16(b, uint16(j.Rate))
	b = binary.LittleEndian.AppendUint16(b, uint16(j.WireLen))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(j.Wire)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(j.Instances)))
	b = binary.LittleEndian.AppendUint64(b, uint64(j.UnivUS))
	b = binary.LittleEndian.AppendUint64(b, uint64(j.DispersionUS))
	b = append(b, j.Wire...)
	for _, in := range j.Instances {
		var iflags uint8
		if in.FCSOK {
			iflags |= instFCSOK
		}
		if in.PhyErr {
			iflags |= instPhyErr
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(in.Radio))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.LocalUS))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.UnivUS))
		b = append(b, uint8(in.RSSIdBm), iflags)
	}
	w.bw.Raw = b
	if w.bw.Commit(j.UnivUS) {
		_, err := w.bw.Flush()
		return err
	}
	return nil
}

// Close flushes the final block. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	_, err := w.bw.Flush()
	return err
}

// Reader iterates jframes from an intermediate stream. Frames are
// re-derived from the stored wire bytes with the same partial decode the
// unifier applies at emission, so a decoded stream is structurally
// identical to the one the unify worker serialized.
//
// Returned frames are pooled (unify.NewJFrame) and OWNED by the caller,
// who must Release each one — the .jfs decode path participates in the
// same frame lifecycle as the live unifier. The reader's block buffer is
// reused across blocks; every frame's wire bytes are copied into the
// frame's own storage, so frames are independent of the reader.
type Reader struct {
	br     *block.Reader
	lastUS int64 // the format's contract, enforced on read too: sorted by UnivUS
}

// NewReader wraps an intermediate stream for iteration.
func NewReader(r io.Reader) *Reader {
	t := &Reader{br: block.NewReader(r, blockMagic, "hmerge"), lastUS: math.MinInt64}
	// The stream header is read here; what is wrong with it is reported by
	// Next, like any other error.
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err == io.ErrUnexpectedEOF || err == io.EOF {
		t.br.Fail(fmt.Errorf("hmerge: truncated stream header: %w", io.ErrUnexpectedEOF))
	} else if err != nil {
		t.br.Fail(err)
	} else if [4]byte(hdr[0:4]) != streamMagic {
		t.br.Fail(errors.New("hmerge: bad stream magic"))
	} else if hdr[4] != streamVersion {
		t.br.Fail(fmt.Errorf("hmerge: stream version %d, want %d: %w", hdr[4], streamVersion, block.ErrVersion))
	}
	return t
}

// Next returns the next jframe. io.EOF signals a clean end of stream; any
// other error is a corrupt stream (intermediate files are pipeline-owned,
// so unlike a dead monitor radio this is fatal, not droppable) and is
// returned again by every later call.
func (t *Reader) Next() (*unify.JFrame, error) {
	b, err := t.br.Rest()
	if err != nil {
		return nil, err
	}
	j, n := decodeRecord(b)
	if j == nil {
		return nil, t.br.Fail(fmt.Errorf("hmerge: corrupt block: %w", io.ErrUnexpectedEOF))
	}
	t.br.Skip(n)
	// A corrupted stream must not silently break the k-way merge's ordering.
	if j.UnivUS < t.lastUS {
		j.Release()
		return nil, t.br.Fail(fmt.Errorf("hmerge: stream out of order: %d after %d", j.UnivUS, t.lastUS))
	}
	t.lastUS = j.UnivUS
	return j, nil
}

// decodeRecord parses the jframe at the head of b and returns it with the
// bytes it took, or nil when b ends inside it.
func decodeRecord(b []byte) (*unify.JFrame, int) {
	if len(b) < recHdrLen {
		return nil, 0
	}
	hdr := b[:recHdrLen]
	flags := hdr[0]
	nWire := int(binary.LittleEndian.Uint16(hdr[6:8]))
	nInst := int(binary.LittleEndian.Uint16(hdr[8:10]))
	if len(b) < recHdrLen+nWire+nInst*instLen {
		return nil, 0
	}
	j := unify.NewJFrame()
	j.Channel = dot80211.Channel(hdr[1])
	j.Rate = dot80211.Rate(binary.LittleEndian.Uint16(hdr[2:4]))
	j.WireLen = int(binary.LittleEndian.Uint16(hdr[4:6]))
	j.UnivUS = int64(binary.LittleEndian.Uint64(hdr[10:18]))
	j.DispersionUS = int64(binary.LittleEndian.Uint64(hdr[18:26]))
	j.Valid = flags&flagValid != 0
	j.PhyOnly = flags&flagPhyOnly != 0
	// The wire bytes are copied out of the reused block buffer into the
	// frame's own storage; the decoded header below then aliases that copy,
	// never the block.
	j.SetWire(b[recHdrLen : recHdrLen+nWire])
	if j.Instances == nil {
		prealloc := nInst
		if prealloc > instPrealloc {
			prealloc = instPrealloc
		}
		j.Instances = make([]unify.Instance, 0, prealloc)
	}
	for i := 0; i < nInst; i++ {
		ib := b[recHdrLen+nWire+i*instLen:]
		j.Instances = append(j.Instances, unify.Instance{
			Radio:   int32(binary.LittleEndian.Uint32(ib[0:4])),
			LocalUS: int64(binary.LittleEndian.Uint64(ib[4:12])),
			UnivUS:  int64(binary.LittleEndian.Uint64(ib[12:20])),
			RSSIdBm: int8(ib[20]),
			FCSOK:   ib[21]&instFCSOK != 0,
			PhyErr:  ib[21]&instPhyErr != 0,
		})
	}
	// Re-derive the decoded header exactly as the unifier does at emission:
	// partial decodes are kept (Valid already records whether the decode
	// succeeded on a FCS-valid capture), phy-only events carry no frame.
	if !j.PhyOnly {
		f, _, _ := dot80211.DecodeCapture(j.Wire)
		j.Frame = f
	}
	return j, recHdrLen + nWire + nInst*instLen
}
