package analysis

import (
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/tcpwire"
)

func ccFlow(algo string, port uint16, bytes int64, done bool) scenario.FlowCC {
	key := (&tcpwire.Segment{SrcIP: 0x0a000001, SrcPort: port, DstIP: 0x0b000001, DstPort: 80}).Key()
	return scenario.FlowCC{
		Key: key, Algo: algo, ClientIP: 0x0a000001, ClientPort: port,
		ServerIP: 0x0b000001, BytesAcked: bytes, Completed: done,
	}
}

func TestCCFairnessShares(t *testing.T) {
	flows := []scenario.FlowCC{
		ccFlow("bbr", 1, 600_000, true),
		ccFlow("bbr", 2, 200_000, false),
		ccFlow("cubic", 3, 150_000, true),
		ccFlow("reno", 4, 50_000, true),
	}
	rows := CCFairness(flows, 100)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Sorted by name: bbr, cubic, reno.
	if rows[0].Algo != "bbr" || rows[0].Flows != 2 || rows[0].Completed != 1 {
		t.Errorf("bbr row = %+v", rows[0])
	}
	if rows[0].Share != 0.8 {
		t.Errorf("bbr share = %.2f, want 0.80", rows[0].Share)
	}
	// 800 KB over 100 s = 64 kbit/s.
	if got := rows[0].GoodputBps; got != 64_000 {
		t.Errorf("bbr goodput = %.0f bps, want 64000", got)
	}
	if !strings.Contains(FairnessTable(rows), "bbr") {
		t.Error("table missing bbr row")
	}
}
