// Congestion-control experiments over the simulator's per-flow ground
// truth: throughput-share fairness across algorithms sharing the substrate
// (the BBR-vs-CUBIC/Reno contention question of arXiv:2505.07741 and
// arXiv:1909.03673, scaled to the enterprise workload).
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// CCShareRow summarizes one congestion-control algorithm's slice of a run.
type CCShareRow struct {
	Algo       string
	Flows      int
	Completed  int
	Bytes      int64   // application bytes acknowledged across its flows
	GoodputBps float64 // Bytes over the scenario day
	Share      float64 // fraction of all acknowledged bytes
}

// CCFairness aggregates per-flow ground truth into per-algorithm
// throughput shares. daySec scales goodput; rows come back sorted by
// algorithm name.
func CCFairness(flows []scenario.FlowCC, daySec float64) []CCShareRow {
	byAlgo := make(map[string]*CCShareRow)
	var total int64
	for _, f := range flows {
		r := byAlgo[f.Algo]
		if r == nil {
			r = &CCShareRow{Algo: f.Algo}
			byAlgo[f.Algo] = r
		}
		r.Flows++
		if f.Completed {
			r.Completed++
		}
		r.Bytes += f.BytesAcked
		total += f.BytesAcked
	}
	rows := make([]CCShareRow, 0, len(byAlgo))
	for _, r := range byAlgo {
		if daySec > 0 {
			r.GoodputBps = 8 * float64(r.Bytes) / daySec
		}
		if total > 0 {
			r.Share = float64(r.Bytes) / float64(total)
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Algo < rows[j].Algo })
	return rows
}

// FairnessTable renders CCFairness rows as an aligned text table.
func FairnessTable(rows []CCShareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %7s %9s %14s %12s %7s\n",
		"cc", "flows", "completed", "bytes_acked", "goodput", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %7d %9d %14d %9.2f Mbps %6.1f%%\n",
			r.Algo, r.Flows, r.Completed, r.Bytes, r.GoodputBps/1e6, 100*r.Share)
	}
	return b.String()
}
