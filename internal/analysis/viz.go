package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/unify"
)

// VizPass collects the jframes inside one time window from the stream and
// renders a Figure-2-style view on Finalize: time on the x-axis, one row per
// radio, a mark where each radio heard each jframe ('#' decoded, 'x' corrupt,
// '.' phy error), and a legend line per jframe. Memory is O(window), so the
// out-of-core merge can produce a visualization without retaining the
// trace. The window is anchored on the first jframe observed — how the cmds
// frame "2s into the trace".
type VizPass struct {
	named
	noExchange
	relFromUS, durUS int64
	width            int

	started      bool
	fromUS, toUS int64

	// O(window) retention, clamped to the requested render span. Each
	// buffered jframe carries a reference (Retain on append, Release when
	// the window is rendered).
	window []*unify.JFrame
}

// NewVizPassRelative renders [first+relFromUS, first+relFromUS+durUS),
// anchored on the first jframe in the stream.
func NewVizPassRelative(relFromUS, durUS int64, width int) *VizPass {
	return &VizPass{named: "viz", relFromUS: relFromUS, durUS: durUS, width: width}
}

// ObserveJFrame implements Pass.
func (p *VizPass) ObserveJFrame(j *unify.JFrame) {
	if !p.started {
		p.started = true
		p.fromUS = j.UnivUS + p.relFromUS
		p.toUS = p.fromUS + p.durUS
	}
	if j.UnivUS < p.fromUS || j.UnivUS >= p.toUS {
		return
	}
	j.Retain()
	p.window = append(p.window, j)
}

// Finalize implements Pass, returning the rendered string and releasing
// the collected frames.
func (p *VizPass) Finalize() Report {
	rep := renderWindow(p.window, p.fromUS, p.toUS, p.width)
	for _, j := range p.window {
		j.Release()
	}
	p.window = nil
	return rep
}

// renderWindow draws the collected window.
func renderWindow(window []*unify.JFrame, fromUS, toUS int64, width int) string {
	if width < 20 {
		width = 80
	}
	radios := map[int32]bool{}
	for _, j := range window {
		for _, in := range j.Instances {
			radios[in.Radio] = true
		}
	}
	if len(window) == 0 {
		return "(no jframes in window)\n"
	}
	ids := make([]int32, 0, len(radios))
	for r := range radios {
		ids = append(ids, r)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	span := toUS - fromUS
	col := func(us int64) int {
		c := int((us - fromUS) * int64(width) / span)
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}

	rows := make(map[int32][]byte, len(ids))
	for _, r := range ids {
		rows[r] = []byte(strings.Repeat(" ", width))
	}
	for _, j := range window {
		for _, in := range j.Instances {
			ch := byte('#')
			if in.PhyErr {
				ch = '.'
			} else if !in.FCSOK {
				ch = 'x'
			}
			rows[in.Radio][col(in.UnivUS)] = ch
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "universal time %d..%d us (%d us/col)\n", fromUS, toUS, span/int64(width))
	for _, r := range ids {
		fmt.Fprintf(&b, "r%03d |%s|\n", r, rows[r])
	}
	b.WriteString("frames:\n")
	for _, j := range window {
		tag, desc := "valid", j.Frame.String()
		if j.PhyOnly {
			tag, desc = "phyerr", "(undecodable energy)"
		} else if !j.Valid {
			tag = "corrupt"
		}
		fmt.Fprintf(&b, "  t=%-10d %-7s x%-2d disp=%-3dus %s\n",
			j.UnivUS, tag, len(j.Instances), j.DispersionUS, desc)
	}
	return b.String()
}
