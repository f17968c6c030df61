package scenario

import (
	"container/heap"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/tracefile"
)

// ReplayConfig drives Replay: re-emit a recorded trace directory into a
// live capture directory (rotating segments, the newest still growing), the
// shape jigd tails.
type ReplayConfig struct {
	// SrcDir is a trace directory (radio-<id>.jig + meta.json).
	SrcDir string
	// DstDir receives the capture-directory layout; created if missing.
	DstDir string
	// SegmentUS is the destination's rotation period in trace time.
	SegmentUS int64
	// Pace, when non-nil, is called before each record is written with the
	// record's timestamp relative to the trace's first record. The cmd
	// edge injects wall-clock sleeps here; a nil Pace replays as fast as
	// possible, keeping the library deterministic.
	Pace func(relUS int64)
	// MarkDone writes the capture-done marker after the final seal, so
	// tailing readers terminate instead of waiting for more segments.
	MarkDone bool
}

// replayStream is one radio's cursor into the source trace.
type replayStream struct {
	radio int32
	r     *tracefile.Reader
	rec   tracefile.Record
}

// replayHeap orders streams by next-record time, radio as tiebreak, so the
// merged emission is deterministic.
type replayHeap []*replayStream

func (h replayHeap) Len() int { return len(h) }
func (h replayHeap) Less(i, j int) bool {
	if h[i].rec.LocalUS != h[j].rec.LocalUS {
		return h[i].rec.LocalUS < h[j].rec.LocalUS
	}
	return h[i].radio < h[j].radio
}
func (h replayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *replayHeap) Push(x any)   { *h = append(*h, x.(*replayStream)) }
func (h *replayHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// Replay re-emits SrcDir's recorded traces into DstDir as a live capture:
// meta.json is copied up front (a tailing consumer needs the roster before
// the first record), then every radio's records stream through
// per-radio rotating segment writers in globally merged time order, so
// segments seal in roughly the interleaving a real capture would produce.
// Record contents are preserved exactly; only the container changes.
func Replay(cfg ReplayConfig) error {
	if cfg.SegmentUS <= 0 {
		return fmt.Errorf("scenario: replay needs SegmentUS > 0, have %d", cfg.SegmentUS)
	}
	meta, err := os.ReadFile(filepath.Join(cfg.SrcDir, MetaFileName))
	if err != nil {
		return fmt.Errorf("scenario: replay source meta: %w", err)
	}
	if err := os.MkdirAll(cfg.DstDir, 0o755); err != nil {
		return fmt.Errorf("scenario: replay dst: %w", err)
	}
	// tmp + rename: a consumer polling the directory never reads half a roster.
	metaPath := filepath.Join(cfg.DstDir, MetaFileName)
	if err := os.WriteFile(metaPath+".tmp", meta, 0o644); err != nil {
		return fmt.Errorf("scenario: replay dst meta: %w", err)
	}
	if err := os.Rename(metaPath+".tmp", metaPath); err != nil {
		return fmt.Errorf("scenario: replay dst meta: %w", err)
	}

	ts, err := tracefile.OpenDir(cfg.SrcDir)
	if err != nil {
		return err
	}
	h := &replayHeap{}
	writers := make(map[int32]*tracefile.DirRotatingWriter, ts.Len())
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			_ = c.Close() // read-side cleanup; replay errors surface elsewhere
		}
	}()
	for _, radio := range ts.Radios() {
		rc, err := ts.Open(radio)
		if err != nil {
			return fmt.Errorf("scenario: replay open radio %d: %w", radio, err)
		}
		closers = append(closers, rc)
		s := &replayStream{radio: radio, r: tracefile.NewReader(rc)}
		s.rec, err = s.r.Next()
		if err == io.EOF {
			continue // empty trace: nothing to replay for this radio
		}
		if err != nil {
			return fmt.Errorf("scenario: replay radio %d: %w", radio, err)
		}
		writers[radio] = tracefile.NewDirRotatingWriter(cfg.DstDir, radio, cfg.SegmentUS)
		heap.Push(h, s)
	}

	var firstUS int64
	if h.Len() > 0 {
		firstUS = (*h)[0].rec.LocalUS
	}
	for h.Len() > 0 {
		s := (*h)[0]
		if cfg.Pace != nil {
			cfg.Pace(s.rec.LocalUS - firstUS)
		}
		if err := writers[s.radio].WriteRecord(s.rec); err != nil {
			return fmt.Errorf("scenario: replay write radio %d: %w", s.radio, err)
		}
		var err error
		s.rec, err = s.r.Next()
		if err == io.EOF {
			heap.Pop(h)
			continue
		}
		if err != nil {
			return fmt.Errorf("scenario: replay radio %d: %w", s.radio, err)
		}
		heap.Fix(h, 0)
	}
	for _, radio := range ts.Radios() {
		w := writers[radio]
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("scenario: replay close radio %d: %w", radio, err)
		}
	}
	if cfg.MarkDone {
		return tracefile.MarkCaptureDone(cfg.DstDir)
	}
	return nil
}
