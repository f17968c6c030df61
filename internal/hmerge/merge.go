package hmerge

import (
	"fmt"
	"io"

	"repro/internal/tracefile"
	"repro/internal/unify"
)

// Stream is one building's opened intermediate stream: its metadata sidecar
// plus a positioned reader. A Stream is one-shot — it is consumed by a
// single merge pass and cannot be rewound.
type Stream struct {
	Meta *Meta
	r    *Reader
	c    io.Closer
}

// NewStream wraps an already-open intermediate stream (e.g. an in-memory
// buffer in tests). meta may be nil when only the jframes matter.
func NewStream(meta *Meta, r io.Reader) *Stream {
	return &Stream{Meta: meta, r: NewReader(r)}
}

// OpenStream opens an intermediate stream file and its metadata sidecar.
func OpenStream(path string) (*Stream, error) {
	meta, err := ReadMetaFile(MetaPath(path))
	if err != nil {
		return nil, err
	}
	f, err := tracefile.FileSource(path).Open() // a buffered file reader
	if err != nil {
		return nil, fmt.Errorf("hmerge: open stream: %w", err)
	}
	return &Stream{Meta: meta, r: NewReader(f), c: f}, nil
}

// OpenStreams opens every path, closing any already-open streams on error.
func OpenStreams(paths []string) ([]*Stream, error) {
	streams := make([]*Stream, 0, len(paths))
	for _, p := range paths {
		s, err := OpenStream(p)
		if err != nil {
			for _, prev := range streams {
				_ = prev.Close() // error-path cleanup; the open error wins
			}
			return nil, err
		}
		streams = append(streams, s)
	}
	return streams, nil
}

// Label names the stream for error messages.
func (s *Stream) Label() string {
	if s.Meta != nil && s.Meta.Building != "" {
		return s.Meta.Building
	}
	return "stream"
}

// Next returns the stream's next jframe (io.EOF at clean end).
func (s *Stream) Next() (*unify.JFrame, error) { return s.r.Next() }

// Close releases the underlying file, if any.
func (s *Stream) Close() error {
	if s.c == nil {
		return nil
	}
	return s.c.Close()
}

// mergeHead is one stream's head inside the merge heap: its jframe, keyed
// by the jframe's UnivUS (copied, so sifting reads no frame) and the
// stream's index.
type mergeHead struct {
	us  int64
	idx int
	j   *unify.JFrame
}

// mergeHeap is a binary min-heap of stream heads ordered by (UnivUS, stream
// index), a total order, with concrete sift loops: no container/heap
// interface dispatch, no boxing of each pushed item into an `any`.
type mergeHeap []mergeHead

func (h mergeHeap) less(i, j int) bool {
	return h[i].us < h[j].us || h[i].us == h[j].us && h[i].idx < h[j].idx
}

func (h *mergeHeap) push(it mergeHead) {
	s := append(*h, it)
	*h = s
	for j := len(s) - 1; j > 0 && s.less(j, (j-1)/2); j = (j - 1) / 2 {
		s[j], s[(j-1)/2] = s[(j-1)/2], s[j]
	}
}

// popMin removes the root.
func (h *mergeHeap) popMin() {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], mergeHead{}
	*h = s[:n]
	s[:n].fixMin()
}

// fixMin restores heap order after the root's key changed.
func (h mergeHeap) fixMin() {
	for i, j := 0, 1; j < len(h); i, j = j, 2*j+1 {
		if j+1 < len(h) && h.less(j+1, j) {
			j++
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
	}
}

// Merger is the global k-way merge: it interleaves k sorted intermediate
// streams into one jframe sequence ordered by (UnivUS, stream index). The
// stream-index tiebreak makes the merged order deterministic for any fixed
// stream list — the hierarchical path's analogue of the unifier's canonical
// emission order.
//
// Unlike live radios (where the unifier drops a dead source and continues),
// intermediate files are pipeline-owned: any stream error is a hard error.
type Merger struct {
	streams []*Stream
	h       mergeHeap
	started bool
}

// NewMerger prepares a merge over streams, decoded on the caller's
// goroutine. prefetch is ignored: per-stream decode goroutines measured no
// faster on the campus workload, so the merger has none.
func NewMerger(streams []*Stream, prefetch bool) *Merger {
	return &Merger{streams: streams}
}

// Close ends the merge, releasing the stream heads the merger still holds.
// After a merge that ran to io.EOF there is nothing left to do; after a
// stream error, or when the caller stops early, this is what keeps pooled
// frames from leaking. The merger must not be used afterwards.
func (m *Merger) Close() {
	for _, it := range m.h {
		it.j.Release()
	}
	m.h = nil
}

func (m *Merger) streamErr(idx int, err error) error {
	return fmt.Errorf("hmerge: merge %s (stream %d): %w", m.streams[idx].Label(), idx, err)
}

func (m *Merger) start() error {
	m.h = make(mergeHeap, 0, len(m.streams))
	for i, s := range m.streams {
		j, err := s.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return m.streamErr(i, err)
		}
		m.h.push(mergeHead{us: j.UnivUS, idx: i, j: j})
	}
	return nil
}

// Next returns the globally next jframe (io.EOF when every stream is
// drained).
func (m *Merger) Next() (*unify.JFrame, error) {
	if !m.started {
		if err := m.start(); err != nil {
			return nil, err
		}
		m.started = true
	}
	if len(m.h) == 0 {
		return nil, io.EOF
	}
	top := &m.h[0]
	j := top.j
	nxt, err := m.streams[top.idx].Next()
	if err == io.EOF {
		m.h.popMin()
	} else if err != nil {
		return nil, m.streamErr(top.idx, err)
	} else {
		top.us, top.j = nxt.UnivUS, nxt
		m.h.fixMin()
	}
	return j, nil
}
