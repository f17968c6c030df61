package llc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dot80211"
	"repro/internal/unify"
)

// BenchmarkReconstructor feeds interleaved acknowledged exchanges from n
// senders, every one of them live for the whole run: a sender transmits
// every n·50 µs (≤ 205 ms, inside the exchange timeout). One op is one
// jframe, so ns/op is ns/jframe; with expiry driven by deadlines it should
// not grow with n.
func BenchmarkReconstructor(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("senders=%d", n), func(b *testing.B) {
			const stepUS = 50
			roundUS := int64(n*stepUS + 1_000)
			// One round: each sender's data frame stepUS after the previous
			// sender's, its ACK SIFS after the data ends, in time order.
			var round []*unify.JFrame
			for i := range n {
				tx := dot80211.MAC{2, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
				d := dataJF(tx, ap, 1, int64(1_000_000+i*stepUS), false)
				round = append(round, d, ackJF(tx, d))
			}
			slices.SortStableFunc(round, func(x, y *unify.JFrame) int { return int(x.UnivUS - y.UnivUS) })
			r := NewReconstructor()
			// A round's frames are reused for the next one, shifted by
			// roundUS: each data frame is closed by its ACK within the
			// round, so nothing the reconstructor still holds is moved.
			feed := func(i int) {
				k := i % len(round)
				r.Process(round[k])
				r.Take()
				if k == len(round)-1 {
					for _, j := range round {
						j.UnivUS += roundUS
					}
				}
			}
			for i := range round { // every sender live before timing starts
				feed(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				feed(i)
			}
			if r.Stats.Exchanges == 0 || len(r.senders) != n {
				b.Fatalf("%d exchanges, %d live senders, want %d", r.Stats.Exchanges, len(r.senders), n)
			}
		})
	}
}
