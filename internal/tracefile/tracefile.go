// Package tracefile implements the jigdump-style per-radio trace format:
// the stream of physical-layer event records each monitor radio produces,
// serialized in compressed blocks (§3.3: jigdump reads 64 KB at a time,
// compresses with LZO, and writes data and a metadata index separately,
// rotating files hourly). Nothing here seeks, so no index is written: every
// block's frame says how long it is, and readers walk the blocks in order.
//
// The container and codec are internal/block's: an LZO-class byte LZ, as
// the paper's jigdump, in blocks of block.Target (16 KB) raw bytes rather
// than jigdump's 64 KB — the merge holds one decoded block per radio, and
// block.Target says what the size costs — behind a 24-byte frame (magic "JIG2",
// compLen, rawLen, record count, first LocalUS). A block's raw bytes are
// records back to back, little-endian:
//
//	localUS i64 · radio i32 · channel u8 · rssi i8 · rate u16 · flags u8 ·
//	pad u8 · origLen u16 · frameLen u16 · frame [frameLen]byte
//
// JIG1 files (the same records under DEFLATE) are rejected with
// block.ErrVersion, not read.
package tracefile

import (
	"encoding/binary"
	"errors"
	"io"

	"repro/internal/block"
)

// Record flags.
const (
	FlagFCSOK  uint8 = 1 << 0 // frame passed its FCS
	FlagPhyErr uint8 = 1 << 1 // physical error event: energy, no frame
)

// Record is one captured physical-layer event at one radio: a valid frame,
// a corrupted frame, or a physical error. Timestamps are the radio's local
// 1 µs clock — synchronization to universal time is Jigsaw's job, not the
// capture format's.
//
// Ownership: a Record returned by Reader.Next (or any Source-backed
// stream) BORROWS its Frame bytes from the reader's block buffer — they
// are valid only until the next call on the same reader. Consumers that
// hold a record across calls must copy the frame (see CloneFrame); the
// unifier copies at intake, so everything downstream of it is governed by
// the JFrame retain/release contract instead.
type Record struct {
	LocalUS int64  // local receive timestamp, microseconds
	RadioID int32  // capturing radio
	Channel uint8  // tuned channel
	RSSIdBm int8   // received signal strength
	Rate    uint16 // coded rate in 100 kbps units (dot80211.Rate)
	Flags   uint8
	// OrigLen is the frame's true on-air byte length before snap
	// truncation (like a radiotap/pcap original-length field); airtime
	// computations must use it, not len(Frame).
	OrigLen uint16
	Frame   []byte // captured wire bytes (nil for phy errors), snap-limited
}

// FCSOK reports whether the record's frame passed its checksum.
func (r *Record) FCSOK() bool { return r.Flags&FlagFCSOK != 0 }

// IsPhyErr reports whether the record is a physical error event.
func (r *Record) IsPhyErr() bool { return r.Flags&FlagPhyErr != 0 }

// CloneFrame replaces a borrowed Frame with an owned copy, so the record
// stays valid past the reader call that produced it.
func (r *Record) CloneFrame() {
	if r.Frame != nil {
		r.Frame = append([]byte(nil), r.Frame...)
	}
}

// DefaultSnapLen bounds captured frame bytes: MAC header plus up to 200
// payload bytes, like the paper's captures (§5).
const DefaultSnapLen = 228

// magic identifies trace blocks. Its last byte is the format version: the
// DEFLATE-era format wrote "JIG1" in the same place.
var magic = [4]byte{'J', 'I', 'G', '2'}

// Writer serializes records into compressed blocks. It is not safe for
// concurrent use; the capture path is single-threaded per radio.
type Writer struct {
	bw         *block.Writer
	blockAgeUS int64
	snapLen    int
	closed     bool
}

// NewWriter creates a trace writer with the default snap length.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: block.NewWriter(w, magic), snapLen: DefaultSnapLen}
}

// SetSnapLen overrides the per-frame capture byte limit (0 = unlimited).
func (w *Writer) SetSnapLen(n int) { w.snapLen = n }

// SetBlockAge makes the writer also close a block when a record arrives
// stamped us or more after the block's first (0, the default: by size alone).
// No timer: an idle radio's block stays open until its next record or Close.
func (w *Writer) SetBlockAge(us int64) { w.blockAgeUS = us }

// WriteRecord appends one record, flushing a block when the target size is
// reached, and first the pending block if the record finds it past its age.
func (w *Writer) WriteRecord(r Record) error {
	if w.closed {
		return errors.New("tracefile: writer closed")
	}
	// The pending block's first stamp is its first eight bytes (layout below).
	if w.blockAgeUS > 0 && len(w.bw.Raw) > 0 && r.LocalUS-int64(binary.LittleEndian.Uint64(w.bw.Raw)) >= w.blockAgeUS {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	frame := r.Frame
	if r.OrigLen == 0 {
		r.OrigLen = uint16(len(frame))
	}
	if w.snapLen > 0 && len(frame) > w.snapLen {
		frame = frame[:w.snapLen]
	}
	b := binary.LittleEndian.AppendUint64(w.bw.Raw, uint64(r.LocalUS))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.RadioID))
	b = append(b, r.Channel, uint8(r.RSSIdBm))
	b = binary.LittleEndian.AppendUint16(b, r.Rate)
	b = append(b, r.Flags, 0)
	b = binary.LittleEndian.AppendUint16(b, r.OrigLen)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(frame)))
	w.bw.Raw = append(b, frame...)
	if w.bw.Commit(r.LocalUS) {
		return w.flushBlock()
	}
	return nil
}

// flushBlock emits the pending block.
func (w *Writer) flushBlock() error {
	_, err := w.bw.Flush()
	return err
}

// Close flushes the final block. The writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.flushBlock()
}

// Reader iterates records from a trace stream. Records are parsed in
// place: each returned Record's Frame aliases the reader's decoded block
// buffer and is only valid until the next call (see Record). Inputs that
// implement block.Slicer (in-memory buffers, mapped files) are decoded
// straight out of their backing bytes.
type Reader struct{ br *block.Reader }

// NewReader wraps a trace stream for record iteration.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: block.NewReader(r, magic, "tracefile")}
}

// recHdrLen is the per-record header (20 bytes) plus the 2-byte frame
// length.
const recHdrLen = 22

// Next returns the next record. io.EOF signals a clean end of trace; any
// other error is returned again by every later call. The record's Frame is
// borrowed (valid until the next Next call).
func (t *Reader) Next() (Record, error) {
	var rec Record
	b, err := t.br.Rest()
	if err != nil {
		return rec, err
	}
	if len(b) < recHdrLen {
		return rec, t.br.Fail(errors.New("tracefile: corrupt block: truncated record header"))
	}
	rec.LocalUS = int64(binary.LittleEndian.Uint64(b[0:8]))
	rec.RadioID = int32(binary.LittleEndian.Uint32(b[8:12]))
	rec.Channel = b[12]
	rec.RSSIdBm = int8(b[13])
	rec.Rate = binary.LittleEndian.Uint16(b[14:16])
	rec.Flags = b[16]
	rec.OrigLen = binary.LittleEndian.Uint16(b[18:20])
	n := int(binary.LittleEndian.Uint16(b[20:22]))
	if len(b) < recHdrLen+n {
		return rec, t.br.Fail(errors.New("tracefile: corrupt block: truncated frame"))
	}
	if n > 0 {
		rec.Frame = b[recHdrLen : recHdrLen+n : recHdrLen+n]
	}
	t.br.Skip(recHdrLen + n)
	return rec, nil
}

// ReadAll drains a reader into a slice, copying each borrowed frame into
// owned storage (the slice outlives the reader's block buffer).
func ReadAll(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var recs []Record
	for {
		rec, err := tr.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		rec.CloneFrame()
		recs = append(recs, rec)
	}
}

// WriteAll serializes records to w.
func WriteAll(w io.Writer, recs []Record) error {
	tw := NewWriter(w)
	for _, r := range recs {
		if err := tw.WriteRecord(r); err != nil {
			return err
		}
	}
	return tw.Close()
}
