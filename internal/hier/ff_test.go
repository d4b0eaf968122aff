package hier

import (
	"math/rand"
	"testing"

	"tako/internal/cache"
	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

// ffWorkload drives a deterministic multi-tile mix of every fast-path
// operation: per-tile private store/load round-trips (value-checked
// inline), commutative atomic adds to a shared region (schedule-
// independent final state), line loads/stores, and exchanges on
// tile-private words. Returns the expected shared-region totals.
func ffWorkload(t *testing.T, k *sim.Kernel, h *Hierarchy, tiles, ops int) []uint64 {
	t.Helper()
	const (
		privBase   = mem.Addr(0x10000)
		privStride = mem.Addr(0x8000)
		sharedBase = mem.Addr(0x1000)
		sharedLen  = 64 // words
	)
	expected := make([]uint64, sharedLen)
	for tile := 0; tile < tiles; tile++ {
		rng := rand.New(rand.NewSource(int64(100 + tile)))
		for i := 0; i < ops; i++ {
			if rng.Intn(4) == 0 {
				w := rng.Intn(sharedLen)
				expected[w] += uint64(1 + rng.Intn(16))
			} else {
				rng.Intn(64)
				rng.Intn(5)
			}
		}
	}
	for tile := 0; tile < tiles; tile++ {
		tile := tile
		rng := rand.New(rand.NewSource(int64(100 + tile)))
		base := privBase + mem.Addr(tile)*privStride
		k.Go("ffwork", func(p *sim.Proc) {
			last := map[mem.Addr]uint64{}
			for i := 0; i < ops; i++ {
				if rng.Intn(4) == 0 {
					w := rng.Intn(sharedLen)
					delta := uint64(1 + rng.Intn(16))
					h.AtomicAddLocal(p, tile, sharedBase+mem.Addr(w)*8, delta)
					continue
				}
				a := base + mem.Addr(rng.Intn(64))*8
				switch rng.Intn(5) {
				case 0:
					v := uint64(i)<<8 | uint64(tile)
					h.Store(p, tile, a, v)
					last[a] = v
				case 1:
					if want, ok := last[a]; ok {
						if got := h.Load(p, tile, a); got != want {
							t.Errorf("tile %d: load %v = %d, want %d", tile, a, got, want)
						}
					} else {
						h.Load(p, tile, a)
					}
				case 2:
					line := h.LoadLine(p, tile, a)
					h.StoreLine(p, tile, a, &line)
				case 3:
					var line mem.Line
					for w := uint64(0); w < mem.WordsPerLine; w++ {
						line.SetU64(w*8, uint64(i))
					}
					h.StoreLineNT(p, tile, a.Line(), &line)
					for w := uint64(0); w < mem.WordsPerLine; w++ {
						last[a.Line()+mem.Addr(w*8)] = uint64(i)
					}
				case 4:
					h.AtomicExchange(p, tile, a, uint64(i))
					last[a] = uint64(i)
				}
			}
		})
	}
	return expected
}

// TestFFFunctionalExactness runs the workload fully simulated and
// fast-forwarded and checks both reach the same architectural memory
// state: per-tile round-trips are value-checked inline, and the shared
// region (updated only by commutative atomics, so schedule-independent)
// must equal the closed-form totals in both runs.
func TestFFFunctionalExactness(t *testing.T) {
	const tiles, ops = 4, 1500
	run := func(ffBudget uint64) (*Hierarchy, []uint64) {
		k := sim.NewKernel()
		h := New(k, DefaultConfig(tiles), energy.NewMeter(), nil, nil)
		if ffBudget > 0 {
			h.EnableFastForward(ffBudget, nil)
		}
		expected := ffWorkload(t, k, h, tiles, ops)
		k.Run()
		h.FinishFF()
		return h, expected
	}

	hSim, expected := run(0)
	hFF, _ := run(1 << 62) // entire run inside the warmup window
	hMix, _ := run(2000)   // switches over mid-run

	for _, tc := range []struct {
		name string
		h    *Hierarchy
	}{{"sim", hSim}, {"ff", hFF}, {"mixed", hMix}} {
		for w, want := range expected {
			a := mem.Addr(0x1000) + mem.Addr(w)*8
			if got := tc.h.DebugReadWord(a); got != want {
				t.Fatalf("%s: shared word %d = %d, want %d", tc.name, w, got, want)
			}
		}
	}
	if hFF.FFAccesses() == 0 || hMix.FFAccesses() == 0 {
		t.Fatalf("fast-forward never engaged: ff=%d mixed=%d", hFF.FFAccesses(), hMix.FFAccesses())
	}
	if est, ok := hFF.FFEstimate(); !ok || est.Accesses != hFF.FFAccesses() {
		t.Fatalf("estimate accesses %v (ok=%v) != %d", est.Accesses, ok, hFF.FFAccesses())
	}
}

// TestFFRemoteRMOs: remote RMOs pass the fast-forward gate like every
// other access. On a fast-forwarding machine they apply to the backing
// store at once, so a fast-forwarded load after them reads their sum,
// and they leave every cache empty for the switchover to seed.
func TestFFRemoteRMOs(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, DefaultConfig(2), energy.NewMeter(), nil, nil)
	h.EnableFastForward(1<<62, nil)
	const a = mem.Addr(0x4000)
	var got uint64
	k.Go("rmo", func(p *sim.Proc) {
		h.Store(p, 0, a, 5)
		h.AtomicAdd(p, 0, a, 1)
		h.DrainRMOs(p, 0)
		h.AtomicAddSync(p, 1, a, 10)
		got = h.Load(p, 0, a)
	})
	k.Run()
	if h.ff.switched {
		t.Fatalf("switched over: %s", h.FFString())
	}
	if got != 16 {
		t.Errorf("load after store 5, RMO +1 and synchronous RMO +10 = %d, want 16", got)
	}
	for i, tile := range h.tiles {
		tile.l3.Walk(func(la mem.Addr, _ *cache.LineState) {
			t.Errorf("L3 bank %d holds %v before switchover", i, la)
		})
	}
}

// TestFFSwitchoverSeedsWarmState checks the switchover contract: the
// event kernel takes over mid-run against caches, TLBs, and a directory
// that satisfy every hierarchy invariant, with warm state actually
// installed (seeded lines, post-switch L1 hits, directory entries for
// every seeded private copy).
func TestFFSwitchoverSeedsWarmState(t *testing.T) {
	const tiles, ops = 4, 2000
	k := sim.NewKernel()
	h := New(k, DefaultConfig(tiles), energy.NewMeter(), nil, nil)
	h.EnableFastForward(3000, nil)
	ffWorkload(t, k, h, tiles, ops)
	k.Run()

	f := h.ff
	if f == nil || !f.switched {
		t.Fatalf("switchover did not happen: %s", h.FFString())
	}
	if f.seeded.L1 == 0 || f.seeded.L2 == 0 || f.seeded.L3 == 0 || f.seeded.TLB == 0 {
		t.Fatalf("warm state not seeded: %+v", f.seeded)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("invariants after seeding: %v", err)
	}
	if hits := h.Metrics.Get("l1.hits"); hits == 0 {
		t.Fatalf("no post-switch L1 hits despite seeded warm state")
	}
	// Every private copy must be directory-tracked (the classic
	// hasExclusive trap: a missing entry reads as exclusive, so an
	// untracked seeded copy could go stale under a remote write).
	for ti, tile := range h.tiles {
		for _, c := range []*cache.Cache{tile.l1, tile.l2} {
			c.Walk(func(la mem.Addr, _ *cache.LineState) {
				sharers, _ := h.DirSharers(la)
				if sharers&(1<<uint(ti)) == 0 {
					t.Errorf("tile %d: private line %v has no directory sharer bit", ti, la)
				}
			})
		}
	}
}
