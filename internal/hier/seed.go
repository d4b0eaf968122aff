package hier

import (
	"tako/internal/analytic"
	"tako/internal/cache"
	"tako/internal/mem"
)

// seedWarmState installs the collector's steady-state occupancy estimate
// into the hierarchy at fast-forward switchover: each cache receives the
// most recently used lines that fit its geometry, each dTLB its most
// recently used pages, and the directory learns every seeded private
// copy. The result satisfies CheckInvariants by construction:
//
//   - every line is seeded clean with the backing store's current data,
//     so the strict-freshness rule (clean private copies byte-match the
//     home L3 line) holds trivially — fast-forward wrote all values to
//     the backing store;
//   - every seeded private (L1/L2) copy gets its tile's sharer bit in
//     the directory. This is load-bearing beyond the checker:
//     hasExclusive treats a *missing* entry as exclusive, so an
//     untracked seeded copy would let another tile's write skip the
//     invalidation protocol and leave the copy stale;
//   - private plans are restricted to lines also planned into the L3
//     (inclusive steady state) and L1 plans to lines planned into the
//     L2, mirroring what demand fills would have built;
//   - owners stay -1 (nothing dirty), so no downgrade state exists.
//
// Precondition: every cache is empty when seeding starts. The
// fast-forward paths touch only the backing store, and seeding runs once,
// at switchover. Each plan's quotas fit its cache, so every planned line
// is seeded, and a cache seeded from a plan holds exactly that plan. The
// L3 is therefore seeded first, so that "planned into the L3" is Contains
// on the line's home bank, and each tile's L2 before its L1, so that "in
// the L2 plan" is Contains on the L2: seeding asks the seeded arrays
// instead of building sets of planned lines.
//
// Recency: cache.Seed/TLB.Warm follow the shared fill clocks, so plans
// are collected most-recent-first and installed in reverse, leaving the
// most recent line MRU in every set.
func (h *Hierarchy) seedWarmState(col *analytic.Collector) ffSeedCounts {
	var n ffSeedCounts
	store := h.DRAM.Store()
	var line mem.Line

	// Shared L3: plan from the merged all-tile stream under per-bank,
	// per-set way quotas.
	totalL3 := 0
	for _, t := range h.tiles {
		totalL3 += t.l3.NumSets() * t.l3.Config().Ways
	}
	l3Plan := make([][]mem.Addr, len(h.tiles))
	quotas := make([][]int, len(h.tiles))
	for i, t := range h.tiles {
		l3Plan[i] = make([]mem.Addr, 0, t.l3.NumSets()*t.l3.Config().Ways)
		quotas[i] = make([]int, t.l3.NumSets())
	}
	planned := 0
	for _, key := range col.GlobalMRU(4 * totalL3) {
		if planned == totalL3 {
			break
		}
		la := mem.Addr(key << mem.LineShift)
		bank := h.HomeTile(la)
		c := h.tiles[bank].l3
		set := c.SetIndex(la)
		if quotas[bank][set] >= c.Config().Ways {
			continue
		}
		quotas[bank][set]++
		l3Plan[bank] = append(l3Plan[bank], la)
		planned++
	}
	for bank, plan := range l3Plan {
		c := h.tiles[bank].l3
		for i := len(plan) - 1; i >= 0; i-- {
			store.PeekLine(plan[i], &line)
			if c.Seed(plan[i], &line) {
				n.L3++
			}
		}
	}
	inL3 := func(la mem.Addr) bool { return h.tiles[h.HomeTile(la)].l3.Contains(la) }

	// Private levels + dTLB, per tile. The collector's exact content
	// filters are the private levels' true steady-state occupancy —
	// including inclusion back-invalidation.
	for ti, t := range h.tiles {
		keys1, keys2 := col.FilterMRU(ti)
		plan2 := planPrivate(t.l2, keys2, inL3)
		for i := len(plan2) - 1; i >= 0; i-- {
			store.PeekLine(plan2[i], &line)
			if t.l2.Seed(plan2[i], &line) {
				n.L2++
				h.dirOf(plan2[i]).add(ti)
				n.Dir++
			}
		}
		// Exact L1 content, restricted to the seeded L2 so the installed
		// levels stay inclusive.
		plan1 := planPrivate(t.l1, keys1, t.l2.Contains)
		for i := len(plan1) - 1; i >= 0; i-- {
			store.PeekLine(plan1[i], &line)
			if t.l1.Seed(plan1[i], &line) {
				n.L1++
				h.dirOf(plan1[i]).add(ti)
			}
		}
		pageBits := t.dtlb.Config().PageBits
		pages := col.PageMRU(ti)
		for i := len(pages) - 1; i >= 0; i-- {
			if t.dtlb.Warm(mem.Addr(pages[i]) << pageBits) {
				n.TLB++
			}
		}
	}
	return n
}

// planPrivate collects the private-cache plan for c from keys (a tile's
// filter content, most recent first within each set): the lines that
// outer holds, under per-set way quotas, up to capacity.
func planPrivate(c *cache.Cache, keys []uint64, outer func(mem.Addr) bool) []mem.Addr {
	capacity := c.NumSets() * c.Config().Ways
	quota := make([]int, c.NumSets())
	plan := make([]mem.Addr, 0, capacity)
	for _, key := range keys {
		if len(plan) == capacity {
			break
		}
		la := mem.Addr(key << mem.LineShift)
		if !outer(la) {
			continue
		}
		set := c.SetIndex(la)
		if quota[set] >= c.Config().Ways {
			continue
		}
		quota[set]++
		plan = append(plan, la)
	}
	return plan
}
