package sim

import (
	"fmt"
	"testing"
)

// benchShardedRun drives a 16-shard workload to completion at the given
// worker width and returns the total events executed. Each event does
// `work` rounds of local integer mixing (standing in for cache/directory
// model compute) and every 16th event posts a cross-shard message, so
// the benchmark exercises mailboxes and barriers, not just private
// queues.
func benchShardedRun(b *testing.B, workers, work int) uint64 {
	const (
		shards    = 16
		lookahead = 3
		chains    = 8 // concurrent event chains per shard (in-flight txns per tile)
	)
	s := NewSharded(shards, lookahead)
	perChain := b.N / (shards * chains)
	if perChain < 1 {
		perChain = 1
	}
	sink := make([]uint64, shards*8) // one cache line apart per shard
	noop := func() {}
	type load struct {
		sh *Shard
		n  int
		fn func()
	}
	for i := 0; i < shards; i++ {
		slot := &sink[i*8]
		next := (i + 1) % shards
		for c := 0; c < chains; c++ {
			l := &load{sh: s.Shard(i), n: perChain}
			l.fn = func() {
				x := *slot + 0x9e3779b97f4a7c15
				for w := 0; w < work; w++ {
					x ^= x >> 33
					x *= 0xff51afd7ed558ccd
					x ^= x >> 29
				}
				*slot = x
				if l.n--; l.n <= 0 {
					return
				}
				if l.n%16 == 0 {
					l.sh.Send(next, lookahead, noop)
				}
				l.sh.K.After(1, l.fn)
			}
			s.Shard(i).K.After(Cycle(1+c%lookahead), l.fn)
		}
	}
	if workers == 1 {
		s.RunSequenced()
	} else {
		s.Run(workers)
	}
	var total uint64
	for i := 0; i < shards; i++ {
		total += s.Shard(i).K.Events()
	}
	return total
}

// BenchmarkShardedThroughput sweeps worker widths over a 16-shard
// workload with per-event model compute (8 concurrent chains per shard,
// so each 3-cycle epoch carries ~24 events per shard and the barrier
// amortizes). The w1/w8 ratio is the single-run speedup headline.
// Speedup scales with real cores: widths beyond the host's cores
// degenerate to sequential plus barrier overhead.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, work := range []int{0, 64, 512} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("work=%d/w=%d", work, workers), func(b *testing.B) {
				b.ReportAllocs()
				total := benchShardedRun(b, workers, work)
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}
