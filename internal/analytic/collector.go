package analytic

import "tako/internal/mem"

// Sample is what the collector observes for one access: exactly what
// Model.Observe scores. Property tests pin each field against a brute
// reference.
type Sample struct {
	// The simulator's L2 only observes accesses that missed L1, and the
	// shared L3 only accesses that missed both private levels.
	// ReachL2/ReachL3 report whether this access reached the level,
	// decided by the exact functional LRU content of the tile's levels
	// above it. L3Dist/L3Cold is the access's LRU stack distance within
	// the merged private-miss-filtered stream, set only when ReachL3.
	ReachL2 bool
	ReachL3 bool
	L3Dist  int
	L3Cold  bool

	// TLBHit reports whether the access's page was resident in the
	// tile's dTLB filter, an exact fully-associative LRU of the dTLB's
	// entry count.
	TLBHit bool
}

// collectorKeep bounds the shared-stream structures (the L3 stack and
// the global recency record): far above the aggregate L3 capacity (16
// tiles x 512 KB = 128K lines), so the bound never perturbs an estimate
// or a seeded line — a key older than keep distinct lines would miss
// everywhere anyway.
const collectorKeep = 1 << 21

// Collector ingests the workload's access stream — with no event kernel
// in the loop — and keeps exactly what the model scores and warm-state
// seeding installs:
//
//   - per tile, exact functional L1 and L2 content filters, which decide
//     whether an access reaches L2 and L3 and are the private levels'
//     steady-state occupancy;
//   - per tile, an exact dTLB filter;
//   - one LRU stack over the merged private-miss-filtered stream, whose
//     distances feed the shared L3's hit probability;
//   - a bounded recency record of the merged unfiltered stream, whose
//     order plans the shared L3's warm state.
//
// Phantom-region addresses are tracked like any others: the hierarchy
// caches phantom lines normally (only their backing data is synthetic),
// so their reuse displaces real lines exactly as in simulation.
type Collector struct {
	pageBits uint

	l1, l2 []*exactCache // per tile
	tlb    []*exactCache // per tile, one set of dTLB-entries ways
	l3     *Stack        // merged private-miss-filtered stream
	global *recency      // merged unfiltered stream
}

// NewCollector builds a collector for a machine with the given tile
// count, private L1/L2 geometry, and per-tile dTLB (page size and
// fully-associative entry count).
func NewCollector(tiles int, pageBits uint, l1, l2 Geom, tlbEntries int) *Collector {
	return newCollector(tiles, pageBits, l1, l2, tlbEntries, collectorKeep)
}

// newCollector is NewCollector with the shared-stream bound as a
// parameter, so tests can put the bound under pressure.
func newCollector(tiles int, pageBits uint, l1, l2 Geom, tlbEntries, keep int) *Collector {
	c := &Collector{
		pageBits: pageBits,
		l1:       make([]*exactCache, tiles),
		l2:       make([]*exactCache, tiles),
		tlb:      make([]*exactCache, tiles),
		l3:       NewStack(keep),
		global:   &recency{keep: keep},
	}
	for i := 0; i < tiles; i++ {
		c.l1[i] = newExactCache(l1)
		c.l2[i] = newExactCache(l2)
		c.tlb[i] = newExactCache(Geom{Sets: 1, Ways: tlbEntries})
	}
	return c
}

// Touch records one access (load, store or atomic alike) from tile to
// byte address a and returns what it observed.
func (c *Collector) Touch(tile int, a mem.Addr) Sample {
	la := a >> mem.LineShift
	var s Sample
	c.global.touch(uint64(la))
	s.TLBHit, _, _ = c.tlb[tile].access(uint64(a) >> c.pageBits)
	if hit, _, _ := c.l1[tile].access(uint64(la)); !hit {
		s.ReachL2 = true
		if l2hit, victim, evicted := c.l2[tile].access(uint64(la)); !l2hit {
			s.ReachL3 = true
			s.L3Dist, s.L3Cold = c.l3.Touch(uint64(la))
			if evicted {
				// Inclusive hierarchy: an L2 eviction back-invalidates
				// the tile's L1 copy, so the victim must leave the L1
				// filter too. Without this the model never sees the
				// L1-resident-but-L2-evicted lines that re-fetch
				// through (and hit) the shared level.
				c.l1[tile].invalidate(victim)
			}
		}
	}
	return s
}

// FilterMRU returns the exact content of tile's L1/L2 filters: resident
// line addresses set-major, each set's lines most recent first. This is
// the private levels' exact steady-state occupancy, including inclusion
// back-invalidations.
func (c *Collector) FilterMRU(tile int) (l1, l2 []uint64) {
	return c.l1[tile].content(), c.l2[tile].content()
}

// GlobalMRU returns up to n line addresses most recently touched by any
// tile, most recent first; exact for n up to the collector's bound.
func (c *Collector) GlobalMRU(n int) []uint64 { return c.global.mru(n) }

// PageMRU returns the content of tile's dTLB filter: the page numbers it
// touched most recently, at most the dTLB's entry count, most recent
// first.
func (c *Collector) PageMRU(tile int) []uint64 { return c.tlb[tile].content() }
