// Package baseline implements the comparison points the paper positions
// Jigsaw against:
//
//   - BeaconSync: Yeo et al.'s approach — synchronize traces using beacon
//     frames from APs as the only references, with no skew tracking or
//     continuous resynchronization. Works for a handful of monitors near
//     one AP; at building scale it degrades because beacons from one AP do
//     not cover all monitors and clock skew between beacons goes
//     uncorrected.
//   - NaiveMerge: a mergecap-style union of traces by raw local timestamps,
//     deduplicating only exact (timestamp, content) matches. This is what
//     conventional tooling offers and it neither unifies duplicates (clock
//     offsets differ) nor orders frames correctly.
//
// The baseline rows of the root TestPaperNumbers quantify both against
// Jigsaw's synchronization.
package baseline

import (
	"sort"

	"repro/internal/dot80211"
	"repro/internal/timesync"
	"repro/internal/tracefile"
)

// BeaconSyncResult mirrors timesync.Result for the beacon-only algorithm.
type BeaconSyncResult struct {
	OffsetUS map[int32]int64
	Unsynced []int32
}

// Synced reports whether all radios were covered.
func (r *BeaconSyncResult) Synced() bool { return len(r.Unsynced) == 0 }

// BeaconSync computes per-radio offsets using only beacon frames observed
// in the window, anchored pairwise like Yeo et al.'s merge. It uses the
// same transitive BFS as Jigsaw's bootstrap but restricted to beacons, and
// applies no skew model afterwards.
func BeaconSync(recs []tracefile.Record) *BeaconSyncResult {
	radios := map[int32]bool{}
	type obs struct {
		radio int32
		local int64
	}
	sets := map[uint64][]obs{}
	for i := range recs {
		rec := &recs[i]
		radios[rec.RadioID] = true
		if !rec.FCSOK() {
			continue
		}
		f, _, err := dot80211.DecodeCapture(rec.Frame)
		if err != nil || !f.IsBeacon() {
			continue
		}
		key := timesync.ContentKey(rec.Frame)
		sets[key] = append(sets[key], obs{rec.RadioID, rec.LocalUS})
	}
	type edge struct {
		to    int32
		delta int64
	}
	adj := map[int32][]edge{}
	// Build adjacency in sorted content-key order: the BFS below assigns
	// each radio's offset through the first edge that reaches it, so
	// insertion order must not depend on map iteration (the timesync
	// bootstrap had this exact bug; jiglint's mapiterorder now flags it).
	keys := make([]uint64, 0, len(sets))
	for k := range sets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		os := sets[k]
		if len(os) < 2 {
			continue
		}
		base := os[0]
		for _, o := range os[1:] {
			adj[base.radio] = append(adj[base.radio], edge{o.radio, base.local - o.local})
			adj[o.radio] = append(adj[o.radio], edge{base.radio, o.local - base.local})
		}
	}
	all := make([]int32, 0, len(radios))
	for r := range radios {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &BeaconSyncResult{OffsetUS: map[int32]int64{}}
	if len(all) == 0 {
		return res
	}
	res.OffsetUS[all[0]] = 0
	queue := []int32{all[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			if _, ok := res.OffsetUS[e.to]; ok {
				continue
			}
			res.OffsetUS[e.to] = res.OffsetUS[cur] + e.delta
			queue = append(queue, e.to)
		}
	}
	for _, r := range all {
		if _, ok := res.OffsetUS[r]; !ok {
			res.Unsynced = append(res.Unsynced, r)
		}
	}
	return res
}

// MergedFrame is one entry of a naive merge.
type MergedFrame struct {
	LocalUS int64
	Radio   int32
	Frame   []byte
}

// NaiveMerge unions traces sorted by raw local timestamps, collapsing only
// records whose timestamp difference is within tolUS AND whose bytes match
// exactly — mergecap's model. Returns the merged list and how many
// duplicates it managed to collapse (Jigsaw collapses nearly all; the naive
// merge collapses almost none because local clocks disagree by far more
// than tolUS).
func NaiveMerge(traces map[int32][]tracefile.Record, tolUS int64) ([]MergedFrame, int) {
	var all []MergedFrame
	for radio, recs := range traces {
		for _, r := range recs {
			if len(r.Frame) == 0 {
				continue
			}
			all = append(all, MergedFrame{r.LocalUS, radio, r.Frame})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].LocalUS != all[j].LocalUS {
			return all[i].LocalUS < all[j].LocalUS
		}
		return all[i].Radio < all[j].Radio
	})
	out := all[:0]
	collapsed := 0
	for _, f := range all {
		dup := false
		for k := len(out) - 1; k >= 0 && f.LocalUS-out[k].LocalUS <= tolUS; k-- {
			if string(out[k].Frame) == string(f.Frame) {
				dup = true
				break
			}
		}
		if dup {
			collapsed++
			continue
		}
		out = append(out, f)
	}
	return out, collapsed
}

// SyncErrorUS measures, for a set of per-radio offsets, the worst-case
// disagreement in placing shared reference frames: for every frame heard by
// ≥2 radios, the spread of (local + offset) across its receivers. This is
// the baseline equivalent of Jigsaw's group dispersion.
func SyncErrorUS(recs []tracefile.Record, offsets map[int32]int64) []int64 {
	type obs struct {
		radio int32
		local int64
	}
	sets := map[uint64][]obs{}
	for i := range recs {
		rec := &recs[i]
		if !rec.FCSOK() {
			continue
		}
		f, _, err := dot80211.DecodeCapture(rec.Frame)
		if err != nil || !f.UniqueForSync() {
			continue
		}
		key := timesync.ContentKey(rec.Frame)
		sets[key] = append(sets[key], obs{rec.RadioID, rec.LocalUS})
	}
	var out []int64
	for _, os := range sets {
		var lo, hi int64
		n := 0
		for _, o := range os {
			off, ok := offsets[o.radio]
			if !ok {
				continue
			}
			u := o.local + off
			if n == 0 || u < lo {
				lo = u
			}
			if n == 0 || u > hi {
				hi = u
			}
			n++
		}
		if n >= 2 {
			out = append(out, hi-lo)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
