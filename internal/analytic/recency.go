package analytic

import (
	"cmp"
	"slices"

	"tako/internal/flat"
)

// recency is a bounded record of the order in which keys were last
// touched: a key -> last-touch table, pruned to the keep most recent
// keys whenever it holds more than 2*keep. Warm-state seeding reads only
// this order (mru), so the record keeps no stack distances and a touch
// costs one table write.
//
// mru(n) is exact for every n ≤ keep: a pruned key had at least keep
// more recently touched keys when it was dropped, and all of them stay
// more recent than it until it is touched again.
type recency struct {
	last  flat.Table[uint64] // key -> clock at its last touch
	clock uint64
	keep  int

	scratch []touched // prune/mru scratch, reused
}

type touched struct{ key, at uint64 }

// touch records an access to key.
func (r *recency) touch(key uint64) {
	r.clock++
	r.last.Put(key, r.clock)
	if r.last.Len() > 2*r.keep {
		all := r.byAge()
		r.last.Reset()
		for _, e := range all[len(all)-r.keep:] {
			r.last.Put(e.key, e.at)
		}
	}
}

// byAge returns every recorded key with its last touch, least recent
// first, in the reused scratch. The scratch is grown to the record's size
// once, before filling, so reaching it allocates only its final size.
func (r *recency) byAge() []touched {
	r.scratch = slices.Grow(r.scratch[:0], r.last.Len())
	r.last.Range(func(k uint64, at *uint64) bool {
		r.scratch = append(r.scratch, touched{k, *at})
		return true
	})
	slices.SortFunc(r.scratch, func(a, b touched) int { return cmp.Compare(a.at, b.at) })
	return r.scratch
}

// mru returns up to n keys, most recently touched first.
func (r *recency) mru(n int) []uint64 {
	all := r.byAge()
	out := make([]uint64, min(n, len(all)))
	for i := range out {
		out[i] = all[len(all)-1-i].key
	}
	return out
}
