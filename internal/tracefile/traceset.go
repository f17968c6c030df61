// Trace sources and trace sets: the out-of-core abstraction over "where a
// radio's compressed trace lives". The capture format itself is streamed
// (Reader decodes one block.Target block at a time); these types let the
// pipeline's callers stream too, instead of requiring every compressed
// trace resident in memory. A TraceSet is either buffer-backed (the
// in-memory compatibility path) or directory-backed (one radio-<id>.jig
// file per radio, the building-scale path where 24-hour captures far
// exceed RAM).
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
)

// Source opens one radio's compressed trace stream. Every Open returns an
// independent reader positioned at the start of the trace: the pipeline
// opens each trace twice (bootstrap pre-scan, then the main pass), and the
// pre-scan opens radios from a pool of goroutines, so implementations must
// be safe for concurrent Opens.
type Source interface {
	Open() (io.ReadCloser, error)
}

// BufferSource is an in-memory compressed trace.
type BufferSource []byte

// Open returns a zero-copy reader over the buffered bytes.
func (b BufferSource) Open() (io.ReadCloser, error) {
	return &byteStream{b: b}, nil
}

// byteStream streams an in-memory compressed trace and hands out zero-copy
// block slices: it implements block.Slicer, so Reader decodes compressed
// blocks straight out of the backing bytes instead of staging them through
// a copy. Backs both BufferSource and the mmap path.
type byteStream struct {
	b     []byte
	off   int
	close func() error
	// drop, set by the mmap path only, gives pages of b back to the kernel;
	// b[:dropped] has been. See Slice.
	drop    func([]byte)
	dropped int
}

// dropStep is how much of a mapping a reader leaves behind before it is
// dropped: one madvise per 64 KB of trace, and per open radio a few
// compressed blocks of mapping resident instead of everything read so far.
const dropStep = 64 * 1024

// pageSize aligns what is dropped; a mapping starts on a page.
var pageSize = os.Getpagesize()

func (s *byteStream) Read(p []byte) (int, error) {
	if s.off >= len(s.b) {
		return 0, io.EOF
	}
	n := copy(p, s.b[s.off:])
	s.off += n
	return n, nil
}

// Slice returns the next n bytes of the stream without copying. The slice
// aliases the backing buffer and is only valid until Close.
//
// A mapped stream first drops the whole pages behind the cursor once
// dropStep of them have gathered: the reader never returns to them, and a
// read-only shared file mapping re-faults a dropped page from the page cache,
// so a slice handed out earlier still reads the file's bytes.
func (s *byteStream) Slice(n int) ([]byte, error) {
	if end := s.off &^ (pageSize - 1); s.drop != nil && end-s.dropped >= dropStep {
		s.drop(s.b[s.dropped:end])
		s.dropped = end
	}
	if len(s.b)-s.off < n {
		s.off = len(s.b)
		return nil, io.ErrUnexpectedEOF
	}
	out := s.b[s.off : s.off+n : s.off+n]
	s.off += n
	return out, nil
}

func (s *byteStream) Close() error {
	s.b = nil
	if s.close != nil {
		return s.close()
	}
	return nil
}

// fileReadBufSize sizes the read buffer in front of each trace file: big
// enough to amortize syscalls over a few compressed blocks (blocks compress
// well under their block.Target raw size, and 64 KB blocks written by earlier
// releases still read), small enough that a building's worth of concurrently
// open radios stays cheap.
const fileReadBufSize = 32 * 1024

// FileSource is a file-backed compressed trace, opened by path at use time
// so an idle TraceSet holds no file descriptors.
type FileSource string

// bufReadCloser pairs the buffered reader with the file it fronts.
type bufReadCloser struct {
	*bufio.Reader
	c io.Closer
}

func (b *bufReadCloser) Close() error { return b.c.Close() }

// Open opens the trace file with a read buffer.
func (f FileSource) Open() (io.ReadCloser, error) {
	fh, err := os.Open(string(f))
	if err != nil {
		return nil, err
	}
	return &bufReadCloser{Reader: bufio.NewReaderSize(fh, fileReadBufSize), c: fh}, nil
}

// MmapSource is a file-backed compressed trace mapped into memory at Open:
// Reader slices compressed blocks straight out of the mapping instead of
// copying them through a read buffer, and the pages it has read are given
// back as it goes. On platforms without mmap (or when the mapping fails) it
// degrades to FileSource's buffered reads.
type MmapSource string

// Open maps the trace read-only, falling back to buffered file reads when
// mmap is unavailable.
func (m MmapSource) Open() (io.ReadCloser, error) {
	rc, ok, err := mmapOpen(string(m))
	if err != nil {
		return nil, err
	}
	if ok {
		return rc, nil
	}
	return FileSource(m).Open()
}

// TraceSet maps radio ids to trace sources — the pipeline's input. Memory
// behaviour is the backing's: buffer-backed sets hold every compressed
// trace resident; directory-backed sets hold only paths, so the pipeline's
// working set is O(search window) per radio, and so is the mapped part of
// its resident set (MmapSource drops the pages behind the reader).
type TraceSet struct {
	sources map[int32]Source
	dir     string // non-empty when directory-backed
}

// NewTraceSet builds a set from explicit per-radio sources.
func NewTraceSet(sources map[int32]Source) *TraceSet {
	return &TraceSet{sources: sources}
}

// NewBufferSet wraps in-memory compressed traces (the bytes produced by
// Writer) as a TraceSet.
func NewBufferSet(traces map[int32][]byte) *TraceSet {
	m := make(map[int32]Source, len(traces))
	for r, b := range traces {
		m[r] = BufferSource(b)
	}
	return &TraceSet{sources: m}
}

// TracePath names a radio's trace file inside a trace directory.
func TracePath(dir string, radio int32) string {
	return filepath.Join(dir, fmt.Sprintf("radio-%d.jig", radio))
}

// ParseTraceName extracts the radio id from a trace filename of the
// directory layout, radio-<id>.jig.
func ParseTraceName(name string) (int32, bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "radio-") || !strings.HasSuffix(base, ".jig") {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(base, "radio-"), ".jig")
	id, err := strconv.ParseUint(num, 10, 31)
	if err != nil {
		return 0, false
	}
	return int32(id), true
}

// OpenDir builds a directory-backed TraceSet from every radio trace file
// (radio-<id>.jig) in dir. Unrecognized files are ignored; an empty
// directory is an error, and so are two files naming the same radio (e.g. a
// stale zero-padded radio-03.jig next to a fresh radio-3.jig) — silently
// picking one would merge mixed-generation traces.
func OpenDir(dir string) (*TraceSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracefile: open trace dir: %w", err)
	}
	m := make(map[int32]Source)
	names := make(map[int32]string)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		id, ok := ParseTraceName(e.Name())
		if !ok {
			continue
		}
		if prev, dup := names[id]; dup {
			return nil, fmt.Errorf("tracefile: radio %d has two traces in %s (%s and %s); remove the stale one",
				id, dir, prev, e.Name())
		}
		names[id] = e.Name()
		m[id] = MmapSource(filepath.Join(dir, e.Name()))
	}
	if len(m) == 0 {
		return nil, fmt.Errorf("tracefile: no radio traces in %s", dir)
	}
	return &TraceSet{sources: m, dir: dir}, nil
}

// Dir returns the backing directory ("" for buffer-backed sets).
func (ts *TraceSet) Dir() string { return ts.dir }

// Len returns the number of radios in the set.
func (ts *TraceSet) Len() int { return len(ts.sources) }

// Radios lists the set's radio ids in ascending order.
func (ts *TraceSet) Radios() []int32 {
	out := make([]int32, 0, len(ts.sources))
	for r := range ts.sources {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Open starts a fresh read of one radio's trace.
func (ts *TraceSet) Open(radio int32) (io.ReadCloser, error) {
	src, ok := ts.sources[radio]
	if !ok {
		return nil, fmt.Errorf("tracefile: no trace for radio %d", radio)
	}
	return src.Open()
}

// RadioSource streams one radio of a TraceSet record by record — the shape
// the unifier consumes (it satisfies unify.Source). The stream opens lazily
// on the first Next (the unifier skips unsynchronized radios, which must
// not pin file descriptors) and closes itself at end of trace or on the
// first error.
//
// A non-EOF failure is latched for Err. The unifier's contract is
// drop-radio-on-error (a dead monitor must not kill a building-wide merge
// mid-stream), but for a stored trace an I/O or decode error is not a dead
// radio: silently analyzing the truncated remainder would be wrong output
// with exit 0. So callers check Err once the pass completes.
type RadioSource struct {
	ts    *TraceSet
	radio int32
	r     *Reader
	rc    io.Closer
	done  bool
	err   error
}

// Source returns a fresh lazy stream over one radio's trace.
func (ts *TraceSet) Source(radio int32) *RadioSource {
	return &RadioSource{ts: ts, radio: radio}
}

// Next returns the radio's next record (borrowed, like Reader.Next's), or
// io.EOF at the clean end of the trace.
func (s *RadioSource) Next() (Record, error) {
	if s.done {
		return Record{}, io.EOF
	}
	if s.r == nil {
		rc, err := s.ts.Open(s.radio)
		if err != nil {
			s.done, s.err = true, err
			return Record{}, err
		}
		s.rc = rc
		s.r = NewReader(rc)
	}
	rec, err := s.r.Next()
	if err != nil {
		s.done = true
		cerr := s.rc.Close()
		if err == io.EOF && cerr != nil {
			err = cerr
		}
		if err != io.EOF {
			s.err = err
		}
		return Record{}, err
	}
	return rec, nil
}

// Err returns the stream's latched open/read/close failure (nil after a
// clean end of trace).
func (s *RadioSource) Err() error { return s.err }
