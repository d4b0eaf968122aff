package hier

import (
	"math/rand"
	"reflect"
	"testing"

	"tako/internal/analytic"
	"tako/internal/cache"
	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

// refSeedCounts is what the reference planner did besides seeding: how
// many L3 candidates a full set quota skipped, and how many private
// filter lines were left out because the L3 plan did not hold them.
type refSeedCounts struct {
	ffSeedCounts
	l3QuotaSkips, notInL3 int
}

// refSeedWarmState is the map-based planner seedWarmState replaced: it
// records the lines planned into the L3, and each tile's L2 plan, in
// sets, and restricts the private plans by those sets instead of asking
// the seeded arrays. It keeps the same plan and install order, so on
// empty caches it must leave exactly the state seedWarmState leaves.
func refSeedWarmState(h *Hierarchy, col *analytic.Collector) refSeedCounts {
	var n refSeedCounts
	store := h.DRAM.Store()
	var line mem.Line

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
			n.l3QuotaSkips++
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

	for ti, t := range h.tiles {
		keys1, keys2 := col.FilterMRU(ti)
		for _, key := range keys2 {
			if _, ok := inL3[key]; !ok {
				n.notInL3++
			}
		}
		plan2 := refPlan(t.l2, keys2, func(key uint64) bool {
			_, ok := inL3[key]
			return ok
		})
		inPlan2 := make(map[uint64]struct{}, len(plan2))
		for _, la := range plan2 {
			inPlan2[uint64(la)>>mem.LineShift] = struct{}{}
		}
		plan1 := refPlan(t.l1, keys1, func(key uint64) bool {
			_, ok := inPlan2[key]
			return ok
		})
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

// refPlan is the reference's per-set quota planner over the keys in.
func refPlan(c *cache.Cache, keys []uint64, in func(uint64) bool) []mem.Addr {
	capacity := c.NumSets() * c.Config().Ways
	quota := make([]int, c.NumSets())
	var plan []mem.Addr
	for _, key := range keys {
		if len(plan) == capacity {
			break
		}
		if !in(key) {
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

// TestSeedMatchesMapReference checks seedWarmState, which asks the
// seeded L3 and L2 whether a line was planned, against the map-based
// reference planner. Collectors are fed random streams, one of them with
// a hot L3 set whose way quota binds, so that lines in a tile's L2
// filter are left out of the L3 plan. On each, both must leave the same
// L1, L2 and L3 lines (tag, data and replacement state, way by way), the
// same dTLBs and the same directory sharers.
func TestSeedMatchesMapReference(t *testing.T) {
	const tiles = 4
	cfg := DefaultConfig(tiles)
	// hotStride maps lines to one L3 bank and set: tiles banks of
	// L3BankSize/(64*L3Ways) sets each, line-interleaved.
	hotStride := mem.Addr(tiles * cfg.L3BankSize / cfg.L3Ways)
	for _, tc := range []struct {
		name      string
		accesses  int
		addr      func(rng *rand.Rand) mem.Addr
		wantQuota bool
	}{
		{"fits-l3", 60000, func(rng *rand.Rand) mem.Addr {
			return mem.Addr(rng.Intn(1<<20)) &^ 7
		}, false},
		{"exceeds-l3", 200000, func(rng *rand.Rand) mem.Addr {
			return mem.Addr(rng.Intn(16<<20)) &^ 7
		}, false},
		{"pages", 100000, func(rng *rand.Rand) mem.Addr {
			page := mem.Addr(rng.Intn(256)) << 12
			return page + mem.Addr(rng.Intn(4096))&^7
		}, false},
		{"hot-set-quota", 100000, func(rng *rand.Rand) mem.Addr {
			if rng.Intn(2) == 0 {
				return 0x4000_0000 + mem.Addr(rng.Intn(4*cfg.L3Ways))*hotStride
			}
			return mem.Addr(rng.Intn(4<<20)) &^ 7
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := New(sim.NewKernel(), cfg, energy.NewMeter(), nil, nil)
			want := New(sim.NewKernel(), cfg, energy.NewMeter(), nil, nil)
			got.EnableFastForward(1, nil)
			col := got.ff.col
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			for i := 0; i < tc.accesses; i++ {
				a := tc.addr(rng)
				// Seeding copies the backing store's data into every
				// line: give some lines data so Data is compared too.
				if i%7 == 0 {
					got.DRAM.Store().WriteU64(a, uint64(i))
					want.DRAM.Store().WriteU64(a, uint64(i))
				}
				col.Touch(rng.Intn(tiles), a)
			}

			ref := refSeedWarmState(want, col)
			if n := got.seedWarmState(col); n != ref.ffSeedCounts {
				t.Fatalf("seeded %+v, reference %+v", n, ref.ffSeedCounts)
			}
			if ref.L1 == 0 || ref.L2 == 0 || ref.L3 == 0 || ref.TLB == 0 {
				t.Fatalf("stream seeded too little to compare: %+v", ref)
			}
			if tc.wantQuota && (ref.l3QuotaSkips == 0 || ref.notInL3 == 0) {
				t.Fatalf("L3 quotas did not bind: %d quota skips, %d private lines outside the L3 plan",
					ref.l3QuotaSkips, ref.notInL3)
			}

			type line struct {
				tag mem.Addr
				ls  cache.LineState
			}
			lines := func(c *cache.Cache) []line {
				var out []line
				c.Walk(func(la mem.Addr, ls *cache.LineState) { out = append(out, line{la, *ls}) })
				return out
			}
			for ti := range got.tiles {
				g, w := got.tiles[ti], want.tiles[ti]
				for _, lv := range []struct {
					name string
					g, w *cache.Cache
				}{{"L1", g.l1, w.l1}, {"L2", g.l2, w.l2}, {"L3", g.l3, w.l3}} {
					gl, wl := lines(lv.g), lines(lv.w)
					if !reflect.DeepEqual(gl, wl) {
						t.Fatalf("tile %d %s: %d seeded lines differ from the reference's %d", ti, lv.name, len(gl), len(wl))
					}
				}
				if !reflect.DeepEqual(g.dtlb, w.dtlb) {
					t.Fatalf("tile %d: dTLB differs from the reference's", ti)
				}
			}
			dir := func(h *Hierarchy) map[mem.Addr]dirEntry {
				out := map[mem.Addr]dirEntry{}
				h.dir.forEach(func(la mem.Addr, e *dirEntry) bool {
					out[la] = *e
					return true
				})
				return out
			}
			if gd, wd := dir(got), dir(want); !reflect.DeepEqual(gd, wd) {
				t.Fatalf("directory: %d entries differ from the reference's %d", len(gd), len(wd))
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("invariants after seeding: %v", err)
			}
		})
	}
}
