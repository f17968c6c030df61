// Directory tailing: the live-capture layout a long-running analyzer
// (cmd/jigd) consumes while jigdump-style writers are still appending to
// it. A capturing radio writes consecutive rotation segments
// radio-<id>.seg-NNNN.jig, each block in one write as soon as it closes
// (at block.Target bytes or LiveBlockUS of trace time), and a tailer reads
// the *complete blocks of the newest segment* as they land: every block is
// self-framed, so a torn last block is simply not yet complete. The empty
// marker radio-<id>.seg-NNNN.sealed, created after the segment file is
// closed, says *this file is final*: it is what lets a reader move to the
// next segment, and what tells a crash leftover from a finished file. A
// TailSet exposes each radio as one endless trace Source whose reader
// blocks where the written blocks end until more are written or capture
// ends (the capture.done marker, or Finish). LiveBlockUS has what the small
// blocks cost and buy.
package tracefile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/block"
)

// SegmentTracePath names one rotation segment of a radio's live capture.
func SegmentTracePath(dir string, radio int32, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("radio-%d.seg-%04d.jig", radio, seg))
}

// SegmentSealPath names a segment's seal marker, an empty file whose
// existence marks the segment sealed: final, every block in place.
func SegmentSealPath(dir string, radio int32, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("radio-%d.seg-%04d.sealed", radio, seg))
}

// CaptureDoneName is the marker file a capture (or replay) drops into a
// live trace directory when nothing further will be written. Tailing
// readers then return io.EOF once they exhaust what is there.
const CaptureDoneName = "capture.done"

// ParseSegmentName extracts the radio id and segment number from a
// radio-<id>.seg-<n>.jig filename.
func ParseSegmentName(name string) (radio int32, seg int, ok bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "radio-") || !strings.HasSuffix(base, ".jig") {
		return 0, 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(base, "radio-"), ".jig")
	id, rest, found := strings.Cut(mid, ".seg-")
	if !found {
		return 0, 0, false
	}
	r, err := strconv.ParseUint(id, 10, 31)
	if err != nil {
		return 0, 0, false
	}
	s, err := strconv.ParseUint(rest, 10, 31)
	if err != nil {
		return 0, 0, false
	}
	return int32(r), int(s), true
}

// DirRotatingWriter writes one radio's live capture into a directory as
// rotation segments. Each segment goes to radio-<id>.seg-NNNN.jig unbuffered,
// one write per block, so every closed block is at once readable by a tailer;
// when the segment's last block is written and the file closed, the seal
// marker is created to say the file is final. A crash leaves at worst a torn
// last block and no marker.
type DirRotatingWriter struct {
	rw    *RotatingWriter
	dir   string
	radio int32
	f     *os.File
}

// NewDirRotatingWriter creates a segment writer for one radio. periodUS is
// the rotation period in local-clock microseconds.
func NewDirRotatingWriter(dir string, radio int32, periodUS int64) *DirRotatingWriter {
	w := &DirRotatingWriter{dir: dir, radio: radio}
	w.rw = NewRotatingWriter(w.openSegment, periodUS)
	w.rw.SetSealFunc(w.sealSegment)
	return w
}

func (w *DirRotatingWriter) openSegment(seg int) (io.Writer, error) {
	f, err := os.Create(SegmentTracePath(w.dir, w.radio, seg))
	if err != nil {
		return nil, err
	}
	w.f = f
	return f, nil
}

// sealSegment closes the segment file, then creates its seal marker — only
// once the marker exists does a tailer leave the segment.
func (w *DirRotatingWriter) sealSegment(seg int) error {
	err := w.f.Close()
	w.f = nil
	if err != nil {
		return err
	}
	return os.WriteFile(SegmentSealPath(w.dir, w.radio, seg), nil, 0o644)
}

// WriteRecord appends a record, sealing and rotating segments as its
// timestamp dictates.
func (w *DirRotatingWriter) WriteRecord(r Record) error { return w.rw.WriteRecord(r) }

// Close seals the final segment.
func (w *DirRotatingWriter) Close() error { return w.rw.Close() }

// Segments returns how many segments were produced.
func (w *DirRotatingWriter) Segments() int { return w.rw.Segments() }

// MarkCaptureDone drops the capture-complete marker into dir, telling
// tailers that nothing further will be written.
func MarkCaptureDone(dir string) error {
	return os.WriteFile(filepath.Join(dir, CaptureDoneName), nil, 0o644)
}

// TailCounters is what a TailSet's readers have done so far, as /metrics
// serves it; BlockedTicks times the Scan interval is the wall time spent
// waiting on data. ROADMAP item 1's core.StageStats will absorb these.
type TailCounters struct {
	OpenBlocks   int64 `json:"tail_open_blocks"`   // blocks read from segments not yet sealed
	SealedBlocks int64 `json:"tail_sealed_blocks"` // blocks read from sealed segments
	BlockedTicks int64 `json:"tail_blocked_ticks"` // times a reader parked until the next Scan
	TornBytes    int64 `json:"tail_torn_bytes"`    // bytes of incomplete last blocks dropped at end of capture
}

// TailSet serves each radio of a live trace directory as one endless
// Source. Its readers (obtained through TraceSet) read segments in name
// order, the complete blocks of an unsealed segment included, and leave a
// segment only once its seal marker says it is final — an unsealed
// predecessor holds back a sealed successor, so records are never skipped.
// A reader out of bytes parks, without polling, until the caller's next
// Scan (jigd's ticker; tests call it directly) sends it back to its own
// file, or the capture ends.
type TailSet struct {
	dir string

	mu   sync.Mutex
	cond *sync.Cond
	gen  uint64 // Scans and Finishes so far; parked readers wait for it to move
	done bool

	openBlocks, sealedBlocks, blockedTicks, tornBytes atomic.Int64
}

// NewTailSet tails dir.
func NewTailSet(dir string) *TailSet {
	t := &TailSet{dir: dir}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Scan is the tailer's tick: it looks for the capture-done marker and wakes
// the parked readers, each of which knows the one file it is waiting on. It
// reports whether the capture has ended.
func (t *TailSet) Scan() (done bool, err error) {
	_, err = os.Stat(filepath.Join(t.dir, CaptureDoneName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("tracefile: tail scan: %w", err)
	}
	return t.wake(err == nil), nil
}

// Finish marks the capture over (e.g. on SIGTERM): readers drain the whole
// blocks that are there and return io.EOF. Idempotent.
func (t *TailSet) Finish() { t.wake(true) }

func (t *TailSet) wake(done bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done = t.done || done
	t.gen++
	t.cond.Broadcast()
	return t.done
}

// state returns the wake generation and whether the capture has ended. A
// reader takes it before it probes its file: a wake during the probe counts.
func (t *TailSet) state() (gen uint64, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen, t.done
}

// park blocks until a Scan or Finish after the state call that returned gen.
func (t *TailSet) park(gen uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.gen == gen {
		t.blockedTicks.Add(1)
		t.cond.Wait()
	}
}

// Done reports whether the capture has ended (marker scanned or Finish
// called).
func (t *TailSet) Done() bool {
	_, done := t.state()
	return done
}

// Counters returns the readers' counters.
func (t *TailSet) Counters() TailCounters {
	return TailCounters{OpenBlocks: t.openBlocks.Load(), SealedBlocks: t.sealedBlocks.Load(),
		BlockedTicks: t.blockedTicks.Load(), TornBytes: t.tornBytes.Load()}
}

// Radios lists the directory once and returns the radios whose first
// segment file exists, sealed or not, ascending. A directory that cannot be
// listed (a capture that has not created it yet) has none.
func (t *TailSet) Radios() []int32 {
	entries, _ := os.ReadDir(t.dir)
	var out []int32
	for _, e := range entries {
		if radio, seg, ok := ParseSegmentName(e.Name()); ok && seg == 0 && !e.IsDir() {
			out = append(out, radio)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SealedSegments returns how many consecutive sealed segments radio has.
func (t *TailSet) SealedSegments(radio int32) int {
	n := 0
	for fileExists(SegmentSealPath(t.dir, radio, n)) {
		n++
	}
	return n
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TraceSet fixes the radio roster at the radios present now (Radios) and
// returns a set whose per-radio streams are endless tails: every Open
// starts at segment 0 and reads through the segments, blocking where the
// written blocks end until more are written or the capture ends. Radios
// whose first segment appears only after this call are not part of the set.
func (t *TailSet) TraceSet() *TraceSet {
	sources := make(map[int32]Source)
	for _, r := range t.Radios() {
		sources[r] = sourceFunc(func() (io.ReadCloser, error) { return &tailReader{t: t, radio: r}, nil })
	}
	return &TraceSet{sources: sources, dir: t.dir}
}

// sourceFunc is a Source made of its Open.
type sourceFunc func() (io.ReadCloser, error)

func (f sourceFunc) Open() (io.ReadCloser, error) { return f() }

// tailBufSize is a tail reader's starting buffer (a 1 s segment of the
// benchmark's capture in one read); it doubles while a block does not fit.
const tailBufSize = 16 * 1024

// tailReader streams one radio's capture across its segments in whole
// blocks: Read serves only bytes up to the last complete block read from the
// file, so the block.Reader above it never sees a block the writer is still
// in the middle of (or that a crash tore).
type tailReader struct {
	t     *TailSet
	radio int32
	seg   int      // the segment being read
	f     *os.File // nil until the segment's file has appeared
	final bool     // the segment's seal marker has been seen: the file will not grow
	buf   []byte   // bytes read from f; buf[off:ready] is whole blocks not yet served
	off   int
	ready int
}

func (r *tailReader) Read(p []byte) (int, error) {
	for r.off == r.ready {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.buf[r.off:r.ready])
	r.off += n
	return n, nil
}

// fill returns once at least one more whole block is buffered, waiting for
// the writer if it must; io.EOF means the capture ended on a block boundary
// or with a torn last block, which is dropped and counted.
func (r *tailReader) fill() error {
	var gen uint64
	var done, probed bool
	for {
		if err := r.claim(); err != nil || r.ready > r.off {
			return err
		}
		n, err := r.readMore()
		if err != nil {
			return err
		}
		torn := len(r.buf) - r.ready
		switch {
		case n > 0:
			probed = false
		case r.final:
			if torn > 0 {
				return fmt.Errorf("radio %d segment %d: sealed with %d bytes of a truncated block: %w", r.radio, r.seg, torn, io.ErrUnexpectedEOF)
			}
			_ = r.Close() // only read from
			r.seg, r.final, probed = r.seg+1, false, false
		case !probed:
			// Out of bytes. Look for the seal marker, then read once more: it
			// is created after the last block, so final and still short is
			// over.
			gen, done = r.t.state()
			r.final, probed = fileExists(SegmentSealPath(r.t.dir, r.radio, r.seg)), true
		case done:
			r.t.tornBytes.Add(int64(torn))
			return io.EOF
		default:
			r.t.park(gen)
			probed = false
		}
	}
}

// claim extends ready over every whole block buffered past it. A header
// block.ParseHeader rejects ends the stream: its length cannot be trusted.
func (r *tailReader) claim() error {
	for len(r.buf)-r.ready >= block.HeaderLen {
		h, err := block.ParseHeader(r.buf[r.ready:], magic)
		if err != nil {
			return fmt.Errorf("radio %d segment %d: %w", r.radio, r.seg, err)
		}
		end := r.ready + block.HeaderLen + int(h.CompLen)
		if end > len(r.buf) {
			break
		}
		r.ready = end
		if r.final {
			r.t.sealedBlocks.Add(1)
		} else {
			r.t.openBlocks.Add(1)
		}
	}
	return nil
}

// readMore reads once from the segment file into the buffer, opening the
// file if it has appeared. Called with nothing left to serve; 0 bytes means
// the file, if there is one, has no more for now.
func (r *tailReader) readMore() (int, error) {
	if r.f == nil {
		f, err := os.Open(SegmentTracePath(r.t.dir, r.radio, r.seg))
		if errors.Is(err, fs.ErrNotExist) && !r.final {
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		// Before the first read, so the blocks of a segment already sealed
		// count as such and its end needs no second look.
		r.f, r.final = f, fileExists(SegmentSealPath(r.t.dir, r.radio, r.seg))
	}
	r.buf = r.buf[:copy(r.buf, r.buf[r.off:])]
	r.off, r.ready = 0, 0
	if len(r.buf) == cap(r.buf) {
		// Sized by the bytes a block really has, not by what its header claims.
		r.buf = append(make([]byte, 0, max(tailBufSize, 2*cap(r.buf))), r.buf...)
	}
	n, err := r.f.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf = r.buf[:len(r.buf)+n]
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// Close releases the reader's current segment file, if any.
func (r *tailReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
