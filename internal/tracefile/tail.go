// Directory tailing: the live-capture layout a long-running analyzer
// (cmd/jigd) consumes while jigdump-style writers are still appending to
// it. A capturing radio writes consecutive rotation segments
// radio-<id>.seg-NNNN.jig; a segment is *sealed* — complete and immutable —
// exactly when its metadata-index sidecar radio-<id>.seg-NNNN.idx exists
// (the sidecar is written atomically after the segment's final block, so a
// crash or an in-progress write never yields a sealed-looking partial
// file). A TailSet scans the directory for newly sealed segments and
// exposes each radio as one endless trace Source whose reader blocks at
// the current end of sealed data until the next segment seals or capture
// ends (the capture.done marker, or Finish).
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegmentTracePath names one rotation segment of a radio's live capture.
func SegmentTracePath(dir string, radio int32, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("radio-%d.seg-%04d.jig", radio, seg))
}

// SegmentIndexPath names a segment's metadata-index sidecar, whose
// existence marks the segment sealed.
func SegmentIndexPath(dir string, radio int32, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("radio-%d.seg-%04d.idx", radio, seg))
}

// CaptureDoneName is the marker file a capture (or replay) drops into a
// live trace directory when no further segments will be written. Tailing
// readers then return io.EOF once they exhaust the sealed segments.
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
// sealed rotation segments: each segment streams to
// radio-<id>.seg-NNNN.jig and, once its final block is flushed and the
// file closed, the index sidecar appears atomically (tmp + rename) to
// publish it to tailers.
type DirRotatingWriter struct {
	rw    *RotatingWriter
	dir   string
	radio int32

	f  *os.File
	bw *bufio.Writer
}

// dirSegmentBufSize buffers each segment file's writes; segments are
// written once, sequentially.
const dirSegmentBufSize = 64 * 1024

// NewDirRotatingWriter creates a segment writer for one radio. periodUS is
// the rotation period in local-clock microseconds.
func NewDirRotatingWriter(dir string, radio int32, periodUS int64) *DirRotatingWriter {
	w := &DirRotatingWriter{dir: dir, radio: radio}
	w.rw = NewRotatingWriter(w.openSegment, periodUS)
	w.rw.SetSealFunc(w.sealSegment)
	return w
}

// SetSnapLen sets the per-frame capture limit for subsequent segments.
func (w *DirRotatingWriter) SetSnapLen(n int) { w.rw.SetSnapLen(n) }

func (w *DirRotatingWriter) openSegment(seg int) (io.Writer, error) {
	f, err := os.Create(SegmentTracePath(w.dir, w.radio, seg))
	if err != nil {
		return nil, err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, dirSegmentBufSize)
	return w.bw, nil
}

// sealSegment flushes and closes the segment file, then publishes its
// index sidecar atomically — only after this rename may a tailer read the
// segment.
func (w *DirRotatingWriter) sealSegment(seg int, idx []IndexEntry) error {
	if err := w.bw.Flush(); err != nil {
		_ = w.f.Close() // best-effort cleanup; the flush error is what matters
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.f, w.bw = nil, nil
	final := SegmentIndexPath(w.dir, w.radio, seg)
	tmp := final + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteIndex(tf, idx); err != nil {
		_ = tf.Close() // best-effort cleanup; the write error is what matters
		os.Remove(tmp)
		return err
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, final)
}

// WriteRecord appends a record, sealing and rotating segments as its
// timestamp dictates.
func (w *DirRotatingWriter) WriteRecord(r Record) error { return w.rw.WriteRecord(r) }

// Close seals the final segment.
func (w *DirRotatingWriter) Close() error { return w.rw.Close() }

// Segments returns how many segments were produced.
func (w *DirRotatingWriter) Segments() int { return w.rw.Segments() }

// MarkCaptureDone drops the capture-complete marker into dir, telling
// tailers that no further segments will appear.
func MarkCaptureDone(dir string) error {
	f, err := os.Create(filepath.Join(dir, CaptureDoneName))
	if err != nil {
		return err
	}
	return f.Close()
}

// TailSet tracks the sealed segments of a live trace directory and serves
// each radio as one endless Source. Scan (driven by the caller — jigd
// polls it on a timer, tests call it directly) registers newly sealed
// segments; readers obtained through TraceSet block, without polling
// themselves, until Scan publishes the segment they need or the capture
// ends. A segment is registered only when sealed (its .idx sidecar exists)
// and only in consecutive order per radio, so an in-progress or truncated
// segment file is skipped and picked up on a later Scan once sealed.
type TailSet struct {
	dir string

	mu      sync.Mutex
	cond    *sync.Cond
	sealed  map[int32][]string       // per radio, consecutive sealed segment paths
	pending map[int32]map[int]string // sealed out of order, awaiting predecessors
	done    bool
}

// NewTailSet tails dir. Call Scan to pick up segments.
func NewTailSet(dir string) *TailSet {
	t := &TailSet{
		dir:     dir,
		sealed:  make(map[int32][]string),
		pending: make(map[int32]map[int]string),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Scan reads the directory once, registering every newly sealed segment
// and noticing the capture-done marker. It reports whether anything new
// was published (segments or the end of capture).
func (t *TailSet) Scan() (progress bool, err error) {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return false, fmt.Errorf("tracefile: tail scan: %w", err)
	}
	var doneSeen bool
	type seen struct {
		radio int32
		seg   int
		name  string
	}
	var found []seen
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Name() == CaptureDoneName {
			doneSeen = true
			continue
		}
		radio, seg, ok := ParseSegmentName(e.Name())
		if !ok {
			continue
		}
		found = append(found, seen{radio, seg, e.Name()})
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range found {
		if s.seg < len(t.sealed[s.radio]) {
			continue // already published
		}
		if p := t.pending[s.radio]; p != nil {
			if _, ok := p[s.seg]; ok {
				continue // already noticed, predecessor still unsealed
			}
		}
		// Sealed means the index sidecar exists; the segment file alone
		// may still be growing (or be a truncated crash leftover).
		if _, serr := os.Stat(SegmentIndexPath(t.dir, s.radio, s.seg)); serr != nil {
			continue
		}
		p := t.pending[s.radio]
		if p == nil {
			p = make(map[int]string)
			t.pending[s.radio] = p
		}
		p[s.seg] = filepath.Join(t.dir, s.name)
	}
	// Publish in consecutive segment order per radio (sorted radio walk:
	// registration order must not depend on map iteration).
	radios := make([]int32, 0, len(t.pending))
	for r := range t.pending {
		radios = append(radios, r)
	}
	sort.Slice(radios, func(i, j int) bool { return radios[i] < radios[j] })
	for _, r := range radios {
		p := t.pending[r]
		for {
			path, ok := p[len(t.sealed[r])]
			if !ok {
				break
			}
			delete(p, len(t.sealed[r]))
			t.sealed[r] = append(t.sealed[r], path)
			progress = true
		}
	}
	if doneSeen && !t.done {
		t.done = true
		progress = true
	}
	if progress {
		t.cond.Broadcast()
	}
	return progress, nil
}

// Finish marks the capture over (e.g. on SIGTERM): blocked readers drain
// the sealed segments they have and return io.EOF. Idempotent.
func (t *TailSet) Finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done {
		t.done = true
		t.cond.Broadcast()
	}
}

// Done reports whether the capture has ended (marker scanned or Finish
// called).
func (t *TailSet) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Radios lists the radios with at least one sealed segment, ascending.
func (t *TailSet) Radios() []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int32, 0, len(t.sealed))
	for r := range t.sealed {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SealedSegments returns how many consecutive sealed segments radio has.
func (t *TailSet) SealedSegments(radio int32) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sealed[radio])
}

// TraceSet fixes the radio roster at the radios currently sealed and
// returns a set whose per-radio streams are endless tails: every Open
// starts at segment 0 and reads through the sealed segments, blocking at
// the frontier until more seal or the capture ends. Radios whose first
// segment seals only after this call are not part of the set.
func (t *TailSet) TraceSet() *TraceSet {
	sources := make(map[int32]Source)
	for _, r := range t.Radios() {
		sources[r] = &tailSource{t: t, radio: r}
	}
	return &TraceSet{sources: sources, dir: t.dir}
}

// tailSource adapts one radio's sealed-segment sequence to Source.
type tailSource struct {
	t     *TailSet
	radio int32
}

// Open implements Source; safe for concurrent Opens (the pipeline opens
// each trace twice).
func (s *tailSource) Open() (io.ReadCloser, error) {
	return &tailReader{t: s.t, radio: s.radio}, nil
}

// waitSegment blocks until segment i of radio is sealed (returning its
// path) or the capture is over with no such segment (ok == false).
func (t *TailSet) waitSegment(radio int32, i int) (path string, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if i < len(t.sealed[radio]) {
			return t.sealed[radio][i], true
		}
		if t.done {
			return "", false
		}
		t.cond.Wait()
	}
}

// tailReader streams one radio's capture across its sealed segments,
// blocking at the sealed frontier.
type tailReader struct {
	t     *TailSet
	radio int32
	i     int // next segment index
	cur   io.ReadCloser
}

func (r *tailReader) Read(p []byte) (int, error) {
	for {
		if r.cur != nil {
			n, err := r.cur.Read(p)
			if err == io.EOF && n == 0 {
				cerr := r.cur.Close()
				r.cur = nil
				if cerr != nil {
					return 0, cerr
				}
				continue
			}
			if err == io.EOF {
				err = nil // segment boundary; next Read advances
			}
			return n, err
		}
		path, ok := r.t.waitSegment(r.radio, r.i)
		if !ok {
			return 0, io.EOF
		}
		r.i++
		cur, err := FileSource(path).Open()
		if err != nil {
			return 0, err
		}
		r.cur = cur
	}
}

// Close releases the reader's current segment file, if any.
func (r *tailReader) Close() error {
	if r.cur == nil {
		return nil
	}
	err := r.cur.Close()
	r.cur = nil
	return err
}
