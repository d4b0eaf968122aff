package hier

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/trace"
)

func TestLoadLineStoreLineRoundTrip(t *testing.T) {
	k, h := newH(2)
	k.Go("core", func(p *sim.Proc) {
		var line mem.Line
		for i := 0; i < mem.WordsPerLine; i++ {
			line.SetWord(i, uint64(100+i))
		}
		h.StoreLine(p, 0, 0x7000, &line)
		got := h.LoadLine(p, 1, 0x7000) // cross-tile vector read
		for i := 0; i < mem.WordsPerLine; i++ {
			if got.Word(i) != uint64(100+i) {
				t.Errorf("word %d = %d", i, got.Word(i))
			}
		}
	})
	k.Run()
}

func TestStoreLineNTBypassesAndSupersedes(t *testing.T) {
	k, h := newH(2)
	k.Go("core", func(p *sim.Proc) {
		// Tile 1 caches the line first.
		h.Store(p, 1, 0x8000, 5)
		var line mem.Line
		line.SetWord(0, 99)
		h.StoreLineNT(p, 0, 0x8000, &line)
		// The NT store superseded tile 1's dirty copy.
		if v := h.Load(p, 1, 0x8000); v != 99 {
			t.Errorf("after NT store, read %d, want 99", v)
		}
	})
	k.Run()
	if h.Metrics.Get("nt.stores") != 1 {
		t.Fatalf("nt.stores = %d", h.Metrics.Get("nt.stores"))
	}
}

func TestStoreLineNTToUncachedGoesToDRAM(t *testing.T) {
	k, h := newH(2)
	k.Go("core", func(p *sim.Proc) {
		var line mem.Line
		line.SetWord(3, 7)
		h.StoreLineNT(p, 0, 0xA000, &line)
	})
	k.Run()
	if h.DRAM.Store().ReadU64(0xA018) != 7 {
		t.Fatal("NT store to uncached line did not reach memory")
	}
	if h.DRAM.Writes != 1 {
		t.Fatalf("DRAM writes = %d, want 1 (no read-for-ownership)", h.DRAM.Writes)
	}
	if h.DRAM.Reads != 0 {
		t.Fatalf("DRAM reads = %d, want 0", h.DRAM.Reads)
	}
}

func TestEngineAtomicAddAndPersist(t *testing.T) {
	k, h := newH(2)
	k.Go("engine", func(p *sim.Proc) {
		h.EngineRMWWord(p, 0, 0xB000, RMOAdd, 3, LevelPrivate)
		h.EngineRMWWord(p, 1, 0xB000, RMOAdd, 4, LevelShared)
		var line mem.Line
		line.SetWord(0, 42)
		h.EnginePersistLine(p, 0, 0xC000, &line, LevelPrivate)
	})
	k.Run()
	if got := h.DebugReadWord(0xB000); got != 7 {
		t.Fatalf("engine adds = %d, want 7", got)
	}
	// Persisted line must be in the backing store, not just caches.
	if h.DRAM.Store().ReadU64(0xC000) != 42 {
		t.Fatal("persist did not reach memory")
	}
}

func TestInvalidateRegionDropsAndPreserves(t *testing.T) {
	k, h := newH(2)
	region := mem.Region{Name: "r", Base: 0xD000, Size: 256}
	k.Go("core", func(p *sim.Proc) {
		h.Store(p, 0, 0xD000, 11)
		h.Store(p, 0, 0xD040, 22)
		h.InvalidateRegion(p, region)
	})
	k.Run()
	// Data survived (written back), but no cache holds it.
	if h.DRAM.Store().ReadU64(0xD000) != 11 || h.DRAM.Store().ReadU64(0xD040) != 22 {
		t.Fatal("invalidate lost dirty data")
	}
	for _, tl := range h.tiles {
		for _, c := range tl.privateCaches() {
			if c.Contains(0xD000) || c.Contains(0xD040) {
				t.Fatal("region line still cached")
			}
		}
		if tl.l3.Contains(0xD000) {
			t.Fatal("region line still in L3")
		}
	}
}

// TestInvalidateRegionKeepsNewestCopy: a line dirty in a private cache
// and, with older data, in its home bank or in the same tile's L2 ends
// in memory with the newest data, and no cache holds it.
func TestInvalidateRegionKeepsNewestCopy(t *testing.T) {
	cases := []struct {
		name  string
		tiles int
		write func(p *sim.Proc, h *Hierarchy, x mem.Addr) uint64
	}{
		// Store 1, flush the private copy into the home bank (dirty
		// there), store 2: the private copy is newer than the bank's.
		{"home-bank", 1, func(p *sim.Proc, h *Hierarchy, x mem.Addr) uint64 {
			h.Store(p, 0, x, 1)
			h.FlushRegion(p, 0, mem.Region{Name: "x", Base: x, Size: mem.LineSize}, LevelPrivate)
			h.Store(p, 0, x, 2)
			return 2
		}},
		{"home-bank-2-tiles", 2, func(p *sim.Proc, h *Hierarchy, x mem.Addr) uint64 {
			h.Store(p, 0, x, 1)
			h.FlushRegion(p, 0, mem.Region{Name: "x", Base: x, Size: mem.LineSize}, LevelPrivate)
			h.Store(p, 0, x, 2)
			return 2
		}},
		// Store 1, evict the L1 copy into the L2 (dirty there) with
		// loads that conflict in its L1 set, store 3: the L1 copy is
		// newer than the L2's.
		{"l2", 1, func(p *sim.Proc, h *Hierarchy, x mem.Addr) uint64 {
			h.Store(p, 0, x, 1)
			stride := mem.Addr(h.tiles[0].l1.NumSets() * mem.LineSize)
			for i := mem.Addr(1); i <= 16; i++ {
				h.Load(p, 0, x+i*stride)
			}
			if ls := h.tiles[0].l2.Lookup(x); ls == nil || !ls.Dirty || h.tiles[0].l1.Contains(x) {
				t.Errorf("conflicting loads left x's L1 copy or no dirty L2 copy")
			}
			h.Store(p, 0, x, 3)
			return 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, h := newH(tc.tiles)
			x := mem.Addr(0x10000)
			for h.HomeTile(x) != 0 {
				x += mem.LineSize
			}
			var want uint64
			k.Go("core", func(p *sim.Proc) {
				want = tc.write(p, h, x)
				h.InvalidateRegion(p, mem.Region{Name: "r", Base: x, Size: mem.LineSize})
			})
			k.Run()
			if got := h.DRAM.Store().ReadU64(x); got != want {
				t.Errorf("DRAM holds %d, want the newest store, %d", got, want)
			}
			for i, tl := range h.tiles {
				pc := tl.privateCaches()
				for _, c := range append(pc[:], tl.l3) {
					if c.Contains(x) {
						t.Errorf("tile %d's %s still holds the line", i, c.Config().Name)
					}
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestHomeTileInterleaving(t *testing.T) {
	_, h := newH(4)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[h.HomeTile(mem.Addr(i*64))] = true
	}
	if len(seen) != 4 {
		t.Fatalf("consecutive lines map to %d homes, want 4", len(seen))
	}
	if h.HomeTile(0) != h.HomeTile(63) {
		t.Fatal("same line, different homes")
	}
}

func TestPrefetcherStreamReplacement(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(1)
	cfg.PrefetchStreams = 2
	h := New(k, cfg, energy.NewMeter(), nil, nil)
	k.Go("core", func(p *sim.Proc) {
		// Three interleaved streams with only two stream slots: still
		// no crash, and at least one stream trains.
		for i := 0; i < 48; i++ {
			base := mem.Addr(0x100_0000 * (1 + i%3))
			h.Load(p, 0, base+mem.Addr((i/3)*64))
		}
	})
	k.Run()
	if len(h.tiles[0].streams) > 2 {
		t.Fatalf("stream table grew to %d", len(h.tiles[0].streams))
	}
}

func TestRMOBackpressure(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig(2)
	cfg.RMOLimit = 2
	h := New(k, cfg, energy.NewMeter(), nil, nil)
	k.Go("core", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			h.AtomicAdd(p, 0, mem.Addr(0x9000+(i%4)*64), 1)
		}
		h.DrainRMOs(p, 0)
	})
	k.Run()
	var total uint64
	for i := 0; i < 4; i++ {
		total += h.DebugReadWord(mem.Addr(0x9000 + i*64))
	}
	if total != 50 {
		t.Fatalf("sum = %d, want 50", total)
	}
}

// Property: a random single-tile op sequence matches a shadow map.
func TestQuickSingleTileShadow(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		k := sim.NewKernel()
		h := New(k, ScaledConfig(1, 8), energy.NewMeter(), nil, nil)
		shadow := map[mem.Addr]uint64{}
		ok := true
		k.Go("core", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < int(nOps)+16; i++ {
				a := mem.Addr(0x4000 + rng.Intn(128)*8)
				switch rng.Intn(4) {
				case 0:
					v := rng.Uint64()
					h.Store(p, 0, a, v)
					shadow[a] = v
				case 1:
					if got := h.Load(p, 0, a); got != shadow[a] {
						ok = false
					}
				case 2:
					h.AtomicAddLocal(p, 0, a, 3)
					shadow[a] += 3
				case 3:
					old := h.AtomicExchange(p, 0, a, 9)
					if old != shadow[a] {
						ok = false
					}
					shadow[a] = 9
				}
			}
		})
		k.Run()
		for a, v := range shadow {
			if h.DebugReadWord(a) != v {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMorphInvariantAfterMixedTraffic(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 1 << 20, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelShared)}}
	k := sim.NewKernel()
	r := &fakeRunner{k: k, delay: 2}
	h := New(k, ScaledConfig(2, 16), energy.NewMeter(), reg, r)
	for tile := 0; tile < 2; tile++ {
		tile := tile
		k.Go("w", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(tile)))
			for i := 0; i < 800; i++ {
				if rng.Intn(2) == 0 {
					h.AtomicAdd(p, tile, region.Base+mem.Addr(rng.Intn(4096)*64), 1)
				} else {
					h.Load(p, tile, mem.Addr(0x50_0000+rng.Intn(4096)*64))
				}
			}
			h.DrainRMOs(p, tile)
		})
	}
	k.Run()
	if err := h.CheckMorphInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(k.Blocked()) != 0 {
		t.Fatalf("blocked: %v", k.Blocked())
	}
}

func TestTracerCapturesCallbackEvents(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 64 * 1024, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k, h, _ := newMorphH(2, reg)
	tr := trace.New(256)
	tr.Filter("cb.*", "flush.*")
	h.AttachTracer(tr)
	k.Go("core", func(p *sim.Proc) {
		h.Load(p, 0, region.Base)
		h.Store(p, 0, region.Base+64, 5)
		h.FlushRegion(p, 0, region, LevelPrivate)
	})
	k.Run()
	counts := tr.CountByKind()
	if counts["cb.onMiss"] != 2 {
		t.Fatalf("traced onMiss = %d, want 2 (counts %v)", counts["cb.onMiss"], counts)
	}
	if counts["cb.onWriteback"] != 1 || counts["cb.onEviction"] != 1 {
		t.Fatalf("traced evictions: %v", counts)
	}
	if counts["flush.start"] != 1 || counts["flush.done"] != 1 {
		t.Fatalf("flush events: %v", counts)
	}
}

// TestStrandedRMOIsBlocked: an RMO runs as continuations, not as a proc,
// but one stranded on a home-line lock that is never released must still
// show as a deadlock in Kernel.Blocked, which System.Run checks.
func TestStrandedRMOIsBlocked(t *testing.T) {
	k, h := newH(2)
	a := mem.Addr(0x60_0000)
	h.tiles[h.HomeTile(a)].l3pending.lock(a.Line()) // never released
	k.Go("core", func(p *sim.Proc) { h.AtomicAdd(p, 0, a, 1) })
	k.Run()
	if b := k.Blocked(); len(b) != 1 || b[0] != "waiting continuations: 1" {
		t.Fatalf("blocked = %q, want the RMO stranded on the home-line lock", b)
	}
}

// TestInvariantsCatchDirTrackedLineMissingFromHome: the hierarchy is
// inclusive, so CheckInvariants names a directory-tracked line whose
// home-bank copy is gone.
func TestInvariantsCatchDirTrackedLineMissingFromHome(t *testing.T) {
	k, h := newH(2)
	const x = mem.Addr(0x7040)
	k.Go("core", func(p *sim.Proc) { h.Load(p, 1, x) })
	k.Run()
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.tiles[h.HomeTile(x)].l3.ExtractLine(x); !ok {
		t.Fatal("the load left no home copy to extract")
	}
	err := h.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), x.String()) || !strings.Contains(err.Error(), "home bank") {
		t.Fatalf("CheckInvariants = %v, want an error naming %v as missing from its home bank", err, x)
	}
}
