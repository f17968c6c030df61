// Package timesync implements Jigsaw's bootstrap synchronization (§4.1):
// establishing a single universal time standard across all monitor radios
// from frames opportunistically overheard by multiple radios.
//
// The algorithm follows the paper exactly:
//
//  1. Examine the first window of each trace and find "unique" reference
//     frames — frames whose content unambiguously identifies a single
//     physical transmission (DATA/management frames without the retry bit;
//     ACKs, CTS and probe requests are useless because instances cannot be
//     told apart).
//  2. For each reference frame s_k, build the reception set E_k of
//     (radio, local timestamp) pairs.
//  3. For every radio, pick the E_k containing it with the maximum radio
//     count and add it to the synchronization set G, stopping once G covers
//     every radio (minimizing distinct reference frames maximizes offset
//     consistency).
//  4. Breadth-first search from the root radio through G's co-reception
//     graph assigns each radio an offset T_i to universal time; indoor
//     propagation is effectively instantaneous (<1 µs over 500 m), so a
//     frame's arrival is simultaneous at all receivers.
//  5. Radios on disjoint channels are bridged through monitors whose two
//     radios share one local clock (zero-offset edges).
package timesync

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dot80211"
	"repro/internal/tracefile"
)

// DefaultWindowUS is the bootstrap observation window: the paper uses the
// first second of each trace.
const DefaultWindowUS = 1_000_000

// Observation is one radio's reception of a reference frame.
type Observation struct {
	Radio   int32
	LocalUS int64
}

// refSet is E_k: the set of radios receiving reference frame k.
type refSet struct {
	key  uint64
	obs  []Observation
	used bool
}

// Result holds the bootstrap output.
type Result struct {
	// OffsetUS maps radio → T_i such that universal = local + T_i.
	OffsetUS map[int32]int64
	// Root is the radio anchoring universal time (T_root = 0).
	Root int32
	// Unsynced lists radios for which no transitive path to the root
	// exists (a partitioned deployment, as with 10 pods in §6).
	Unsynced []int32
	// RefFrames is the number of reference frames selected into G.
	RefFrames int
	// Candidates is the number of unique reference frames considered.
	Candidates int
}

// Synced reports whether every observed radio was assigned an offset.
func (r *Result) Synced() bool { return len(r.Unsynced) == 0 }

// ContentKey hashes frame wire bytes for identity comparison. Two receptions
// with equal keys and equal lengths are treated as instances of the same
// transmission (full byte comparison happens in the unifier; the bootstrap
// can tolerate the hash).
func ContentKey(frame []byte) uint64 {
	h := fnv.New64a()
	h.Write(frame)
	return h.Sum64()
}

// uniqueForSync decides reference eligibility per §4.1.
func uniqueForSync(rec *tracefile.Record) bool {
	if !rec.FCSOK() || len(rec.Frame) == 0 {
		return false
	}
	f, _, err := dot80211.DecodeCapture(rec.Frame)
	if err != nil {
		return false
	}
	return f.UniqueForSync()
}

// Bootstrap computes universal-time offsets for every radio appearing in
// recs, which must contain each radio's records from the bootstrap window
// (any order). clockGroups lists sets of radios sharing one physical clock
// (the two radios of each monitor, §3.3) used to bridge across channels.
func Bootstrap(recs []tracefile.Record, clockGroups [][]int32) (*Result, error) {
	// Gather reference frames.
	sets := make(map[uint64]*refSet)
	radios := make(map[int32]bool)
	for i := range recs {
		rec := &recs[i]
		radios[rec.RadioID] = true
		if !uniqueForSync(rec) {
			continue
		}
		key := ContentKey(rec.Frame)
		s := sets[key]
		if s == nil {
			s = &refSet{key: key}
			sets[key] = s
		}
		// A radio can appear once per set; duplicates of a "unique" frame
		// at one radio mean it was not unique after all — drop the set.
		dup := false
		for _, o := range s.obs {
			if o.Radio == rec.RadioID {
				dup = true
				break
			}
		}
		if dup {
			s.used = true // poison: never select
			continue
		}
		s.obs = append(s.obs, Observation{Radio: rec.RadioID, LocalUS: rec.LocalUS})
	}
	if len(radios) == 0 {
		return nil, fmt.Errorf("timesync: no radios in bootstrap window")
	}

	// Candidate sets: ≥2 radios, not poisoned.
	var candidates []*refSet
	for _, s := range sets {
		if !s.used && len(s.obs) >= 2 {
			candidates = append(candidates, s)
		}
	}
	// Deterministic order: larger sets first, then key.
	sort.Slice(candidates, func(i, j int) bool {
		if len(candidates[i].obs) != len(candidates[j].obs) {
			return len(candidates[i].obs) > len(candidates[j].obs)
		}
		return candidates[i].key < candidates[j].key
	})

	// Greedy G assembly: for each radio pick its largest containing set.
	bestFor := make(map[int32]*refSet)
	for _, s := range candidates {
		for _, o := range s.obs {
			if bestFor[o.Radio] == nil {
				bestFor[o.Radio] = s
			}
		}
	}
	g := make(map[uint64]*refSet)
	for _, s := range bestFor {
		g[s.key] = s
	}

	// BFS over G's co-reception graph plus clock-group edges. For a shared
	// frame k: universal U_k = y_ik + T_i = y_jk + T_j, so
	// T_j = T_i + (y_ik - y_jk).
	type edge struct {
		to    int32
		delta int64 // T_to = T_from + delta
	}
	all := make([]int32, 0, len(radios))
	for r := range radios {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	root := all[0]

	bfs := func() map[int32]int64 {
		adj := make(map[int32][]edge)
		addEdge := func(a, b int32, delta int64) {
			adj[a] = append(adj[a], edge{to: b, delta: delta})
			adj[b] = append(adj[b], edge{to: a, delta: -delta})
		}
		// Walk G in sorted key order: BFS assigns each radio's offset
		// through the first path that reaches it, so adjacency insertion
		// order must not depend on map iteration (which varies per process)
		// for the bootstrap to be reproducible.
		gKeys := make([]uint64, 0, len(g))
		for k := range g {
			gKeys = append(gKeys, k)
		}
		sort.Slice(gKeys, func(i, j int) bool { return gKeys[i] < gKeys[j] })
		for _, k := range gKeys {
			s := g[k]
			base := s.obs[0]
			for _, o := range s.obs[1:] {
				addEdge(base.Radio, o.Radio, base.LocalUS-o.LocalUS)
			}
		}
		// Zero-offset clock-group edges bridge channels.
		for _, grp := range clockGroups {
			for i := 1; i < len(grp); i++ {
				if radios[grp[0]] && radios[grp[i]] {
					addEdge(grp[0], grp[i], 0)
				}
			}
		}
		offsets := map[int32]int64{root: 0}
		queue := []int32{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range adj[cur] {
				if _, seen := offsets[e.to]; seen {
					continue
				}
				offsets[e.to] = offsets[cur] + e.delta
				queue = append(queue, e.to)
			}
		}
		return offsets
	}

	offsets := bfs()
	// The minimal greedy G can leave the graph disconnected; per §4.1,
	// "more sets E_k [are] added to G" until coverage stops improving.
	for len(offsets) < len(radios) {
		grew := false
		for _, s := range candidates {
			if _, in := g[s.key]; in {
				continue
			}
			covered := 0
			for _, o := range s.obs {
				if _, ok := offsets[o.Radio]; ok {
					covered++
				}
			}
			// Useful sets connect the synced component to new radios.
			if covered >= 1 && covered < len(s.obs) {
				g[s.key] = s
				grew = true
			}
		}
		if !grew {
			break
		}
		offsets = bfs()
	}

	// Refinement: BFS assigns each offset through a single path, so
	// quantization and in-window skew accumulate along long paths (the
	// paper cites Karp et al.'s optimal path selection; it also notes most
	// paths are precise enough). A few relaxation sweeps over ALL candidate
	// reference frames average every available path: for each frame k the
	// universal time U_k is the median of (T_i + y_ik) over its receivers,
	// and each radio then moves toward the median of (U_k - y_ik) over the
	// frames it received. The root stays pinned.
	for iter := 0; iter < 4; iter++ {
		desired := make(map[int32][]int64)
		for _, s := range candidates {
			us := make([]int64, 0, len(s.obs))
			for _, o := range s.obs {
				t, ok := offsets[o.Radio]
				if !ok {
					continue
				}
				us = append(us, t+o.LocalUS)
			}
			if len(us) < 2 {
				continue
			}
			sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
			uk := us[len(us)/2]
			for _, o := range s.obs {
				if _, ok := offsets[o.Radio]; ok {
					desired[o.Radio] = append(desired[o.Radio], uk-o.LocalUS)
				}
			}
		}
		for r, ds := range desired {
			if r == root {
				continue
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			offsets[r] = ds[len(ds)/2]
		}
	}

	res := &Result{
		OffsetUS:   offsets,
		Root:       root,
		RefFrames:  len(g),
		Candidates: len(candidates),
	}
	for _, r := range all {
		if _, ok := offsets[r]; !ok {
			res.Unsynced = append(res.Unsynced, r)
		}
	}
	return res, nil
}

// CollectWindow reads records from per-radio trace readers until each
// radio's local clock passes windowUS past its first record, returning the
// window records and per-radio continuation streams (the window records are
// NOT consumed from the merge's perspective — callers replay them).
//
// In the real system jigdump traces begin near-simultaneously (NTP-aligned
// wall clocks, footnote 4); our simulated traces all start at t=0, so the
// first windowUS of local time is the natural equivalent.
//
// Records are returned grouped per radio in ascending radio-ID order, so
// the output is deterministic regardless of map iteration.
func CollectWindow(readers map[int32]*tracefile.Reader, windowUS int64) ([]tracefile.Record, error) {
	return CollectWindowParallel(readers, windowUS, 1)
}

// CollectWindowParallel is CollectWindow with the per-radio pre-scan fanned
// across up to workers goroutines. Each radio's window is independent (its
// own reader, its own decompression), so the scan parallelizes perfectly;
// the output is byte-identical to CollectWindow's.
func CollectWindowParallel(readers map[int32]*tracefile.Reader, windowUS int64, workers int) ([]tracefile.Record, error) {
	radios := make([]int32, 0, len(readers))
	for r := range readers {
		radios = append(radios, r)
	}
	sort.Slice(radios, func(i, j int) bool { return radios[i] < radios[j] })

	windows := make([][]tracefile.Record, len(radios))
	errs := make([]error, len(radios))
	if workers > len(radios) {
		workers = len(radios)
	}
	if workers <= 1 {
		for i, r := range radios {
			windows[i], errs[i] = collectRadioWindow(readers[r], windowUS)
		}
	} else {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(radios) {
						return
					}
					windows[i], errs[i] = collectRadioWindow(readers[radios[i]], windowUS)
				}
			}()
		}
		wg.Wait()
	}

	var out []tracefile.Record
	for i, w := range windows {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, w...)
	}
	return out, nil
}

// BootstrapSet is the pipeline's pre-scan over a stored trace set: open
// every radio, collect each one's first windowUS on a pool of workers
// goroutines, close them all again (the main pass reopens lazily), and
// solve the offsets.
func BootstrapSet(ts *tracefile.TraceSet, clockGroups [][]int32, windowUS int64, workers int) (*Result, error) {
	readers := make(map[int32]*tracefile.Reader, ts.Len())
	closers := make([]io.Closer, 0, ts.Len())
	closeAll := func() error {
		var first error
		for _, c := range closers {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	for _, r := range ts.Radios() {
		rc, err := ts.Open(r)
		if err != nil {
			_ = closeAll() // error-path cleanup; the open error wins
			return nil, fmt.Errorf("open trace for radio %d: %w", r, err)
		}
		closers = append(closers, rc)
		readers[r] = tracefile.NewReader(rc)
	}
	window, err := CollectWindowParallel(readers, windowUS, workers)
	if cerr := closeAll(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("bootstrap window: %w", err)
	}
	res, err := Bootstrap(window, clockGroups)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return res, nil
}

// collectRadioWindow reads one radio's bootstrap window.
func collectRadioWindow(r *tracefile.Reader, windowUS int64) ([]tracefile.Record, error) {
	var out []tracefile.Record
	var first int64
	started := false
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !started {
			first = rec.LocalUS
			started = true
		}
		// The record borrows its frame from the reader's block buffer;
		// the window outlives the read loop.
		rec.CloneFrame()
		out = append(out, rec)
		if rec.LocalUS-first > windowUS {
			break
		}
	}
	return out, nil
}
