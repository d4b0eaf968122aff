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
		quotas[i] = make([]int, t.l3.NumSets())
	}
	inL3 := make(map[uint64]struct{}, totalL3)
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
		inL3[key] = struct{}{}
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

	// Private levels + dTLB, per tile. The collector's exact content
	// filters are the private levels' true steady-state occupancy —
	// including inclusion back-invalidation.
	for ti, t := range h.tiles {
		keys1, keys2 := col.FilterMRU(ti)
		plan2 := planPrivate(t.l2, keys2, inL3)
		// Exact L1 content, restricted to the seeded L2 plan so the
		// installed levels stay inclusive.
		inPlan2 := make(map[mem.Addr]struct{}, len(plan2))
		for _, la := range plan2 {
			inPlan2[la] = struct{}{}
		}
		var plan1 []mem.Addr
		for _, key := range keys1 {
			la := mem.Addr(key << mem.LineShift)
			if _, ok := inPlan2[la]; ok {
				plan1 = append(plan1, la)
			}
		}
		plan1 = planSubset(t.l1, plan1)
		for i := len(plan2) - 1; i >= 0; i-- {
			store.PeekLine(plan2[i], &line)
			if t.l2.Seed(plan2[i], &line) {
				n.L2++
				h.dirOf(plan2[i]).add(ti)
				n.Dir++
			}
		}
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

// planPrivate collects the private-cache plan for c from keys (the
// tile's L2 filter content, most recent first within each set): lines
// also planned into the shared L3, under per-set way quotas, up to
// capacity.
func planPrivate(c *cache.Cache, keys []uint64, inL3 map[uint64]struct{}) []mem.Addr {
	capacity := c.NumSets() * c.Config().Ways
	quota := make([]int, c.NumSets())
	plan := make([]mem.Addr, 0, capacity)
	for _, key := range keys {
		if len(plan) == capacity {
			break
		}
		if _, ok := inL3[key]; !ok {
			continue
		}
		la := mem.Addr(key << mem.LineShift)
		set := c.SetIndex(la)
		if quota[set] >= c.Config().Ways {
			continue
		}
		quota[set]++
		plan = append(plan, la)
	}
	return plan
}

// planSubset restricts candidate lines (most recent first within each
// set) to what fits c's geometry. The L1 candidates are already a subset
// of the L2 plan, so inclusion between the seeded private levels mirrors
// demand-fill steady state.
func planSubset(c *cache.Cache, outer []mem.Addr) []mem.Addr {
	capacity := c.NumSets() * c.Config().Ways
	quota := make([]int, c.NumSets())
	plan := make([]mem.Addr, 0, capacity)
	for _, la := range outer {
		if len(plan) == capacity {
			break
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
