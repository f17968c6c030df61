// Hierarchical pipeline entry: the campus-scale path. Per-building unify
// workers (internal/hmerge, possibly separate processes) have already
// bootstrapped and unified each building into a sorted intermediate jframe
// stream; RunHierarchical performs the level-2 global k-way merge over
// those streams and drives the same reconstruction and analysis-pass
// stages as RunFrom over the merged sequence — the merger simply takes the
// unifier's place as the driver's stream stage. Every
// report that works on a flat Result works on a hierarchical one unchanged.
//
// Correctness rests on two facts. First, each building's stream is sorted
// by UnivUS (the unifier's output order, enforced by the codec), so the
// k-way merge by (UnivUS, stream index) yields one globally ordered jframe
// sequence — the same time-ordered shape the reconstruction stage consumes
// on the flat path. Second, buildings are
// radio- and conversation-disjoint: each building bootstraps its own
// universal timeline, and llc reconstruction state is keyed by transmitter
// MAC, so a conversation's frames all come from one building and its
// exchanges' deterministic close stamps are unaffected by how other
// buildings' frames interleave.
package core

import (
	"fmt"

	"repro/internal/hmerge"
	"repro/internal/timesync"
	"repro/internal/unify"
)

// aggregateBootstrap unions per-building bootstrap results into one
// campus-level timesync.Result. Buildings are radio-disjoint by
// construction; a radio appearing in two streams means two workers unified
// overlapping trace sets, which would double-count its frames — a hard
// error. The first stream's root anchors the nominal campus timeline
// (each building's offsets remain relative to its own root; conversations
// never span buildings, so no cross-building alignment is needed).
func aggregateBootstrap(streams []*hmerge.Stream) (*timesync.Result, error) {
	agg := &timesync.Result{OffsetUS: make(map[int32]int64)}
	for i, s := range streams {
		if s.Meta == nil {
			return nil, fmt.Errorf("core: hierarchical stream %d has no metadata", i)
		}
		b := s.Meta.Bootstrap
		for r, off := range b.OffsetUS {
			if _, dup := agg.OffsetUS[r]; dup {
				return nil, fmt.Errorf("core: radio %d appears in two hierarchical streams (buildings must be radio-disjoint)", r)
			}
			agg.OffsetUS[r] = off
		}
		if i == 0 {
			agg.Root = b.Root
		}
		agg.Unsynced = append(agg.Unsynced, b.Unsynced...)
		agg.RefFrames += b.RefFrames
		agg.Candidates += b.Candidates
	}
	return agg, nil
}

// RunHierarchical executes the global merge over per-building intermediate
// streams, driving the same pipeline stages and analysis passes as RunFrom.
// The streams are consumed (and not closed — the caller owns them). The
// Result's Bootstrap and UnifyStats aggregate the buildings' sidecar
// metadata: offsets union (radios must be disjoint), counters sum.
// Config.Unify and Config.BootstrapWindowUS are ignored — both stages
// already ran in the per-building workers.
func RunHierarchical(streams []*hmerge.Stream, cfg Config, sink *Sink) (*Result, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("core: no streams")
	}
	boot, err := aggregateBootstrap(streams)
	if err != nil {
		return nil, err
	}
	var ustats unify.Stats
	for _, s := range streams {
		ustats.Add(s.Meta.Unify)
	}

	merger := hmerge.NewMerger(streams, false)
	defer merger.Close()
	res, err := run(mergedStream{merger, ustats}, boot, cfg, sink, cfg.workers())
	if err != nil {
		return nil, err
	}
	finish(cfg.Passes, res)
	return res, nil
}

// mergedStream is the hierarchical path's stage 1: the global merge, with
// the buildings' precomputed unify counters as its (constant) stats.
type mergedStream struct {
	*hmerge.Merger
	stats unify.Stats
}

func (s mergedStream) Stats() unify.Stats { return s.stats }

// RunHierarchicalPaths opens each intermediate stream file (with its
// metadata sidecar) and runs the global merge over them.
func RunHierarchicalPaths(paths []string, cfg Config, sink *Sink) (*Result, error) {
	streams, err := hmerge.OpenStreams(paths)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range streams {
			_ = s.Close() // read-side cleanup; stream errors surface via the merge
		}
	}()
	return RunHierarchical(streams, cfg, sink)
}
