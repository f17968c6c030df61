package tracefile

import (
	"fmt"
	"io"
)

// RotatingWriter splits a radio's capture into consecutive segments by
// local-clock period, mirroring jigdump's behaviour of "creating a new file
// pair each hour" (§3.3). Each segment is an independent trace stream.
//
// Boundary semantics: the segment grid is anchored at the first record's
// timestamp, and a record timestamped exactly on a period edge opens the
// new segment (segments are the half-open intervals [start, start+period)).
// Idle periods produce no segment at all — segment numbers stay
// consecutive and the next record's period is entered directly, so a
// tailing reader never sees zero-record segment files.
type RotatingWriter struct {
	open     func(segment int) (io.Writer, error)
	seal     func(segment int) error
	periodUS int64

	cur      *Writer
	seg      int
	segStart int64
	started  bool
}

// LiveBlockUS is the age at which a rotating writer closes a block short of
// block.Target: one beacon interval, so every radio in earshot of an AP gets
// a record to close on. It bounds how far a tailing reader trails the writer
// in trace time (at ~190 records of ~72 bytes per radio-second a 16 KB block
// takes over a second to fill, so inside a 1 s segment the seal would be the
// only flush). Measured on the
// benchmark's live workload: windows close a median 360 ms after they are due
// where waiting for the seal gave 719, for 16 % more .jig bytes on disk.
const LiveBlockUS = 100_000

// NewRotatingWriter creates a rotating writer. open is called with the
// segment number (0, 1, …) to obtain each segment's destination; periodUS
// is the rotation period in local-clock microseconds (an hour in the
// paper's deployment).
func NewRotatingWriter(open func(segment int) (io.Writer, error), periodUS int64) *RotatingWriter {
	return &RotatingWriter{open: open, periodUS: periodUS, seg: -1}
}

// SetSealFunc registers a callback invoked after each segment's stream is
// fully written (on rotation and on Close), with the segment number.
// Directory-backed writers use it to close and mark the segment file
// complete so a concurrent tailer can tell sealed segments from the one
// still being written.
func (w *RotatingWriter) SetSealFunc(seal func(segment int) error) {
	w.seal = seal
}

// WriteRecord appends a record, rotating first if its timestamp falls past
// the current segment's period.
func (w *RotatingWriter) WriteRecord(r Record) error {
	if !w.started {
		w.started = true
		w.segStart = r.LocalUS
	}
	if w.cur == nil || r.LocalUS >= w.segStart+w.periodUS {
		if err := w.rotate(r.LocalUS); err != nil {
			return err
		}
	}
	return w.cur.WriteRecord(r)
}

// rotate seals the current segment and opens the one containing nowUS.
func (w *RotatingWriter) rotate(nowUS int64) error {
	if w.cur != nil {
		if err := w.closeCur(); err != nil {
			return err
		}
		// Jump straight to the period containing nowUS (staying on the
		// grid the first record anchored): idle periods in between get no
		// zero-record segment file, and segment numbers stay consecutive.
		w.segStart += (nowUS - w.segStart) / w.periodUS * w.periodUS
	} else {
		w.segStart = nowUS
	}
	w.seg++
	dst, err := w.open(w.seg)
	if err != nil {
		return fmt.Errorf("tracefile: opening segment %d: %w", w.seg, err)
	}
	w.cur = NewWriter(dst)
	w.cur.SetBlockAge(LiveBlockUS)
	return nil
}

// closeCur finishes the current segment's stream and seals it.
func (w *RotatingWriter) closeCur() error {
	err := w.cur.Close()
	w.cur = nil
	if err != nil {
		return err
	}
	if w.seal != nil {
		if serr := w.seal(w.seg); serr != nil {
			return fmt.Errorf("tracefile: sealing segment %d: %w", w.seg, serr)
		}
	}
	return nil
}

// Close finishes and seals the current segment.
func (w *RotatingWriter) Close() error {
	if w.cur == nil {
		return nil
	}
	return w.closeCur()
}

// Segments returns how many segments were produced.
func (w *RotatingWriter) Segments() int { return w.seg + 1 }
