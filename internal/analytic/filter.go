package analytic

import "fmt"

// exactCache is a functional set-associative LRU content filter: no
// data, no timing, just which keys a cache of the given geometry would
// hold. The collector uses one per private level to reproduce the
// simulator's *filtered* streams — the L2 only observes accesses that
// missed L1, and the shared L3 only observes accesses that missed both
// private levels. Feeding the shared level's reuse-distance stack from
// the unfiltered stream would systematically overestimate L3 residency
// of lines that live in the levels above (the classic filtered-stream
// bias; docs/performance.md). A one-set filter of the dTLB's entry count
// models each tile's dTLB exactly: a page hits iff its page-granular LRU
// stack distance is below the entry count.
type exactCache struct {
	ways int
	mask uint64     // set count - 1
	sets [][]uint64 // per set, resident keys MRU-first (≤ ways)
}

// newExactCache returns an empty filter of geometry g. Its set count must
// be a power of two, as the hardware caches' is.
func newExactCache(g Geom) *exactCache {
	sets := g.Sets
	if sets < 1 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("analytic: filter geometry %d sets × %d ways: the set count is not a power of two", g.Sets, g.Ways))
	}
	c := &exactCache{ways: g.Ways, mask: uint64(sets - 1), sets: make([][]uint64, sets)}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, g.Ways)
	}
	return c
}

// access touches key: reports whether it hit, refreshes its recency,
// and on a miss installs it, evicting the set's LRU key when full (the
// victim is returned so callers can propagate inclusion). Set indexing
// matches the hardware caches: the low line-address bits, masked.
func (c *exactCache) access(key uint64) (hit bool, victim uint64, evicted bool) {
	set := c.sets[key&c.mask]
	for i, k := range set {
		if k == key {
			copy(set[1:i+1], set[:i])
			set[0] = key
			return true, 0, false
		}
	}
	if len(set) == c.ways {
		victim, evicted = set[c.ways-1], true
		set = set[:c.ways-1]
	}
	set = append(set, 0)
	copy(set[1:], set)
	set[0] = key
	c.sets[key&c.mask] = set
	return false, victim, evicted
}

// content returns every resident key, set-major, each set's keys most
// recent first.
func (c *exactCache) content() []uint64 {
	out := make([]uint64, 0, len(c.sets)*c.ways)
	for _, set := range c.sets {
		out = append(out, set...)
	}
	return out
}

// invalidate drops key if present (inclusion back-invalidation: the
// simulator extracts L1 copies when the L2 evicts a line, so the
// filters must too — otherwise the model misses the L3 hits those
// invalidated-then-refetched lines produce).
func (c *exactCache) invalidate(key uint64) {
	set := c.sets[key&c.mask]
	for i, k := range set {
		if k == key {
			c.sets[key&c.mask] = append(set[:i], set[i+1:]...)
			return
		}
	}
}
