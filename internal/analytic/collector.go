package analytic

import (
	"fmt"

	"tako/internal/mem"
)

// Sample is the raw reuse-distance observation for one access, exposed
// so property tests can pin the collector against BruteStack and so the
// Model can turn distances into per-level hit probabilities.
type Sample struct {
	Tile int
	Line mem.Addr // line address (byte address >> LineShift)

	// TileDist is the LRU stack distance within the accessing tile's
	// private stream, GlobalDist within the merged unfiltered all-tile
	// stream (warm-state seeding),
	// PageDist within the tile's page-granular stream (models the
	// per-tile dTLB). TileDist is only collected while the level filters
	// are unarmed: once SetFilters has armed the exact private-content
	// filters, they subsume both of its uses (private hit modeling and
	// warm-state seeding) and the per-tile stack is skipped.
	TileDist   int
	TileCold   bool
	GlobalDist int
	GlobalCold bool
	PageDist   int
	PageCold   bool

	// Filtered-stream observations, present when the collector's level
	// filters are armed (SetFilters): the simulator's L2 only observes
	// accesses that missed L1, and the shared L3 only accesses that
	// missed both private levels, so their reuse distances must be
	// measured in those filtered streams. ReachL2/ReachL3 report
	// whether this access reached the level (decided by exact
	// functional LRU content of the level above); the distances are
	// stack distances within that level's own filtered stream.
	ReachL2 bool
	L2Dist  int
	L2Cold  bool
	ReachL3 bool
	L3Dist  int
	L3Cold  bool

	Write bool
}

// Collector ingests the workload's access stream — with no event kernel
// in the loop — and maintains exact LRU stack distances at the three
// granularities the hierarchy's miss behaviour depends on.
//
// Phantom-region addresses are tracked like any others: the hierarchy
// caches phantom lines normally (only their backing data is synthetic),
// so their reuse distances displace real lines exactly as in simulation.
type Collector struct {
	tiles    int
	pageBits uint

	tileLine []*Stack
	tilePage []*Stack
	global   *Stack

	// Level filters (SetFilters): exact functional L1/L2 content per
	// tile gates which accesses feed the filtered L2/L3 stacks.
	filterL1 []*exactCache
	filterL2 []*exactCache
	tileL2   []*Stack // per-tile L1-miss-filtered stream
	globalL3 *Stack   // merged private-miss-filtered stream

	Accesses uint64
	Writes   uint64
}

// NewCollector builds a collector for a machine with the given tile
// count and TLB page size.
func NewCollector(tiles int, pageBits uint) *Collector {
	c := &Collector{
		tiles:    tiles,
		pageBits: pageBits,
		tileLine: make([]*Stack, tiles),
		tilePage: make([]*Stack, tiles),
		// Global stream bounds the shared-L3 model: keep far above the
		// aggregate L3 capacity (16 tiles x 512 KB = 128K lines).
		global: NewStack(1 << 21),
	}
	for i := range c.tileLine {
		// Private stream bound: far above L1+L2 capacity (2.5K lines).
		c.tileLine[i] = NewStack(1 << 15)
		c.tilePage[i] = NewStack(1 << 12)
	}
	return c
}

// SetFilters arms the level filters with the private caches' geometry:
// subsequent Touches additionally report filtered-stream observations
// (Sample.ReachL2/L2Dist/ReachL3/L3Dist) for the Model.
func (c *Collector) SetFilters(l1, l2 Geom) {
	c.filterL1 = make([]*exactCache, c.tiles)
	c.filterL2 = make([]*exactCache, c.tiles)
	c.tileL2 = make([]*Stack, c.tiles)
	for i := 0; i < c.tiles; i++ {
		c.filterL1[i] = newExactCache(l1)
		c.filterL2[i] = newExactCache(l2)
		c.tileL2[i] = NewStack(1 << 15)
	}
	c.globalL3 = NewStack(1 << 21)
}

// Touch records one access from tile to byte address a and returns the
// raw distances observed.
func (c *Collector) Touch(tile int, a mem.Addr, write bool) Sample {
	la := a >> mem.LineShift
	s := Sample{Tile: tile, Line: la, Write: write}
	s.GlobalDist, s.GlobalCold = c.global.Touch(uint64(la))
	s.PageDist, s.PageCold = c.tilePage[tile].Touch(uint64(a) >> c.pageBits)
	if c.filterL1 == nil {
		s.TileDist, s.TileCold = c.tileLine[tile].Touch(uint64(la))
	} else {
		if hit, _, _ := c.filterL1[tile].access(uint64(la)); !hit {
			s.ReachL2 = true
			s.L2Dist, s.L2Cold = c.tileL2[tile].Touch(uint64(la))
			if l2hit, victim, evicted := c.filterL2[tile].access(uint64(la)); !l2hit {
				s.ReachL3 = true
				s.L3Dist, s.L3Cold = c.globalL3.Touch(uint64(la))
				if evicted {
					// Inclusive hierarchy: an L2 eviction back-invalidates
					// the tile's L1 copy, so the victim must leave the L1
					// filter too. Without this the model never sees the
					// L1-resident-but-L2-evicted lines that re-fetch
					// through (and hit) the shared level.
					c.filterL1[tile].invalidate(victim)
				}
			}
		}
	}
	c.Accesses++
	if write {
		c.Writes++
	}
	return s
}

// TileMRU returns up to n line addresses most recently touched by tile,
// most recent first — the steady-state private-cache occupancy estimate
// used by warm-state seeding when the exact filters are unarmed (with
// SetFilters armed the per-tile stack is skipped and TileMRU is empty;
// use FilterMRU).
func (c *Collector) TileMRU(tile, n int) []uint64 { return c.tileLine[tile].MRU(n) }

// FilterMRU returns the exact content of tile's L1/L2 filters: resident
// line addresses set-major, each set's lines most recent first. This is
// the private levels' exact steady-state occupancy (including inclusion
// back-invalidations), which warm-state seeding prefers over the
// stack-MRU estimate. Returns nils until SetFilters arms the filters.
func (c *Collector) FilterMRU(tile int) (l1, l2 []uint64) {
	if c.filterL1 == nil {
		return nil, nil
	}
	return c.filterL1[tile].content(), c.filterL2[tile].content()
}

// GlobalMRU returns up to n line addresses most recently touched by any
// tile, most recent first.
func (c *Collector) GlobalMRU(n int) []uint64 { return c.global.MRU(n) }

// PageMRU returns up to n page numbers most recently touched by tile.
func (c *Collector) PageMRU(tile, n int) []uint64 { return c.tilePage[tile].MRU(n) }

// String summarizes the collector for diagnostics.
func (c *Collector) String() string {
	return fmt.Sprintf("analytic.Collector{tiles:%d accesses:%d writes:%d live:%d}",
		c.tiles, c.Accesses, c.Writes, c.global.Live())
}
