package hier

import (
	"math/rand"
	"testing"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

// fakeRegistry serves bindings from a static list.
type fakeRegistry struct {
	bindings []Binding
}

func (r *fakeRegistry) Binding(a mem.Addr) (Binding, bool) {
	for _, b := range r.bindings {
		if b.Region.Contains(a) {
			return b, true
		}
	}
	return Binding{}, false
}

func (r *fakeRegistry) Protected(mem.Addr) bool { return false }

// fakeRunner executes callbacks instantly (optionally with a delay) and
// records invocations.
type recordedCall struct {
	tile int
	kind CallbackKind
	addr mem.Addr
	data mem.Line
	at   sim.Cycle // when the callback started; it ends delay cycles later
}

type fakeRunner struct {
	k     *sim.Kernel
	delay sim.Cycle
	fill  func(kind CallbackKind, a mem.Addr, line *mem.Line)
	calls []recordedCall
}

func (r *fakeRunner) Run(tile int, kind CallbackKind, b Binding, addr mem.Addr, line *mem.Line) (accepted, done *sim.Future) {
	if r.fill != nil {
		r.fill(kind, addr, line)
	}
	r.calls = append(r.calls, recordedCall{tile, kind, addr, *line, r.k.Now()})
	acc := sim.CompletedFuture(r.k)
	d := sim.NewFuture(r.k)
	d.CompleteAt(r.k.Now() + r.delay)
	return acc, d
}

func (r *fakeRunner) Saturated(int) bool { return false }

func (r *fakeRunner) count(kind CallbackKind) int {
	n := 0
	for _, c := range r.calls {
		if c.kind == kind {
			n++
		}
	}
	return n
}

func newH(tiles int) (*sim.Kernel, *Hierarchy) {
	k := sim.NewKernel()
	h := New(k, DefaultConfig(tiles), energy.NewMeter(), nil, nil)
	return k, h
}

func newMorphH(tiles int, reg *fakeRegistry) (*sim.Kernel, *Hierarchy, *fakeRunner) {
	k := sim.NewKernel()
	r := &fakeRunner{k: k, delay: 10}
	h := New(k, DefaultConfig(tiles), energy.NewMeter(), reg, r)
	return k, h, r
}

func TestLoadMissThenHit(t *testing.T) {
	k, h := newH(4)
	var missLat, hitLat sim.Cycle
	h.DRAM.Store().WriteU64(0x1000, 77)
	k.Go("core", func(p *sim.Proc) {
		t0 := p.Now()
		if v := h.Load(p, 0, 0x1000); v != 77 {
			t.Errorf("load = %d, want 77", v)
		}
		missLat = p.Now() - t0
		t0 = p.Now()
		h.Load(p, 0, 0x1000)
		hitLat = p.Now() - t0
	})
	k.Run()
	if missLat <= hitLat {
		t.Fatalf("miss latency %d should exceed hit latency %d", missLat, hitLat)
	}
	if hitLat > 5 {
		t.Fatalf("L1 hit latency %d too high", hitLat)
	}
	if h.DRAM.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", h.DRAM.Reads)
	}
	if h.Metrics.Get("l1.hits") != 1 || h.Metrics.Get("l3.misses") != 1 {
		t.Fatalf("counters: %s", h.Metrics.String())
	}
}

func TestStoreLoadRoundTrip(t *testing.T) {
	k, h := newH(4)
	k.Go("core", func(p *sim.Proc) {
		h.Store(p, 1, 0x2000, 1234)
		if v := h.Load(p, 1, 0x2000); v != 1234 {
			t.Errorf("readback = %d", v)
		}
	})
	k.Run()
	if got := h.DebugReadWord(0x2000); got != 1234 {
		t.Fatalf("DebugReadWord = %d", got)
	}
}

func TestCrossTileCoherence(t *testing.T) {
	k, h := newH(4)
	done := make(chan struct{}, 1)
	k.Go("seq", func(p *sim.Proc) {
		h.Store(p, 0, 0x3000, 10)
		// Tile 1 reads: must see tile 0's dirty data.
		if v := h.Load(p, 1, 0x3000); v != 10 {
			t.Errorf("tile1 read %d, want 10", v)
		}
		// Tile 1 writes: invalidates tile 0.
		h.Store(p, 1, 0x3000, 20)
		if v := h.Load(p, 0, 0x3000); v != 20 {
			t.Errorf("tile0 read %d, want 20", v)
		}
		// And tile 2, never a sharer, also sees it.
		if v := h.Load(p, 2, 0x3000); v != 20 {
			t.Errorf("tile2 read %d, want 20", v)
		}
		done <- struct{}{}
	})
	k.Run()
	select {
	case <-done:
	default:
		t.Fatal("sequence did not finish")
	}
	if h.Metrics.Get("coh.invalidations") == 0 {
		t.Fatal("no invalidations recorded")
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	k, h := newH(4)
	const n = 200
	for tile := 0; tile < 4; tile++ {
		tile := tile
		k.Go("w", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a := mem.Addr(0x8000 + (i%16)*64)
				h.Store(p, tile, a, uint64(tile*1000+i))
				h.Load(p, tile, a)
			}
		})
	}
	k.Run()
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("deadlocked procs: %v", blocked)
	}
}

func TestEvictionWritebackPreservesData(t *testing.T) {
	k, h := newH(1)
	// Write far more distinct lines than the L2 holds; all values must
	// survive eviction to L3/DRAM.
	const lines = 12288 // 768 KB of lines vs 128 KB L2 / 512 KB L3 bank
	k.Go("core", func(p *sim.Proc) {
		for i := 0; i < lines; i++ {
			h.Store(p, 0, mem.Addr(0x10_0000+i*64), uint64(i+1))
		}
	})
	k.Run()
	rng := rand.New(rand.NewSource(7))
	for j := 0; j < 200; j++ {
		i := rng.Intn(lines)
		if got := h.DebugReadWord(mem.Addr(0x10_0000 + i*64)); got != uint64(i+1) {
			t.Fatalf("line %d = %d, want %d", i, got, i+1)
		}
	}
	if h.Metrics.Get("l3.writebacks") == 0 {
		t.Fatal("expected L3 writebacks to DRAM")
	}
}

func TestAtomicAddAccumulates(t *testing.T) {
	k, h := newH(4)
	const per = 100
	a := mem.Addr(0x5000)
	for tile := 0; tile < 4; tile++ {
		tile := tile
		k.Go("rmo", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				h.AtomicAdd(p, tile, a, 1)
			}
			h.DrainRMOs(p, tile)
		})
	}
	k.Run()
	if got := h.DebugReadWord(a); got != 4*per {
		t.Fatalf("sum = %d, want %d", got, 4*per)
	}
	if h.Metrics.Get("rmo.issued") != 4*per {
		t.Fatalf("rmo.issued = %d", h.Metrics.Get("rmo.issued"))
	}
}

func TestAtomicExchange(t *testing.T) {
	k, h := newH(2)
	k.Go("core", func(p *sim.Proc) {
		h.Store(p, 0, 0x6000, 5)
		old := h.AtomicExchange(p, 0, 0x6000, 9)
		if old != 5 {
			t.Errorf("xchg old = %d, want 5", old)
		}
		if v := h.Load(p, 0, 0x6000); v != 9 {
			t.Errorf("after xchg = %d, want 9", v)
		}
	})
	k.Run()
}

func phantomBinding(region mem.Region, level Level) Binding {
	return Binding{
		MorphID: 1, Level: level, Phantom: true, Region: region,
		HasMiss: true, HasEviction: true, HasWriteback: true,
	}
}

func TestPhantomOnMissFillsLine(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 64 * 1024, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k, h, r := newMorphH(4, reg)
	r.fill = func(kind CallbackKind, a mem.Addr, line *mem.Line) {
		if kind == CbMiss {
			line.SetWord(0, uint64(a)) // "decompress": addr-derived value
		}
	}
	k.Go("core", func(p *sim.Proc) {
		a := region.Base + 128
		if v := h.Load(p, 0, a); v != uint64(a.Line()) {
			t.Errorf("phantom load = %x, want %x", v, uint64(a.Line()))
		}
		// Second load: cache hit, no new callback.
		h.Load(p, 0, a)
		// Different word, same line: still no callback.
		h.Load(p, 0, a+8)
	})
	k.Run()
	if got := r.count(CbMiss); got != 1 {
		t.Fatalf("onMiss calls = %d, want 1", got)
	}
	if h.DRAM.Accesses() != 0 {
		t.Fatalf("phantom miss touched DRAM %d times", h.DRAM.Accesses())
	}
}

func TestPhantomEvictionCallbacks(t *testing.T) {
	// Use a tiny L2 so phantom lines get evicted quickly.
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 1 << 20, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k := sim.NewKernel()
	r := &fakeRunner{k: k, delay: 5}
	cfg := DefaultConfig(1)
	cfg.L2Size = 8 * 1024 // 128 lines
	cfg.L1Size = 1 * 1024
	h := New(k, cfg, energy.NewMeter(), reg, r)
	k.Go("core", func(p *sim.Proc) {
		// Touch 512 phantom lines read-only: evictions are clean.
		for i := 0; i < 512; i++ {
			h.Load(p, 0, region.Base+mem.Addr(i*64))
		}
		// Now write lines so evictions become writebacks.
		for i := 512; i < 1024; i++ {
			h.Store(p, 0, region.Base+mem.Addr(i*64), 1)
		}
	})
	k.Run()
	if r.count(CbEviction) == 0 {
		t.Fatal("no onEviction callbacks")
	}
	if r.count(CbWriteback) == 0 {
		t.Fatal("no onWriteback callbacks")
	}
	if err := h.CheckMorphInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.DRAM.Accesses() != 0 {
		t.Fatal("phantom evictions reached DRAM")
	}
}

func TestSharedMorphOnMissAtHomeBank(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 64 * 1024, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelShared)}}
	k, h, r := newMorphH(4, reg)
	r.fill = func(kind CallbackKind, a mem.Addr, line *mem.Line) {
		if kind == CbMiss {
			line.SetWord(0, 42)
		}
	}
	k.Go("core", func(p *sim.Proc) {
		h.AtomicAdd(p, 2, region.Base, 8)
		h.DrainRMOs(p, 2)
	})
	k.Run()
	if got := r.count(CbMiss); got != 1 {
		t.Fatalf("onMiss calls = %d, want 1", got)
	}
	// onMiss ran on the home tile of the address.
	if r.calls[0].tile != h.HomeTile(region.Base) {
		t.Fatalf("onMiss ran on tile %d, want home %d", r.calls[0].tile, h.HomeTile(region.Base))
	}
	if got := h.DebugReadWord(region.Base); got != 50 {
		t.Fatalf("identity+add = %d, want 50", got)
	}
}

func TestFlushRegionRunsCallbacksAndWaits(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 64 * 1024, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k, h, r := newMorphH(2, reg)
	var flushDone sim.Cycle
	k.Go("core", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			h.Store(p, 0, region.Base+mem.Addr(i*64), uint64(i))
		}
		h.FlushRegion(p, 0, region, LevelPrivate)
		flushDone = p.Now()
	})
	k.Run()
	if got := r.count(CbWriteback); got != 20 {
		t.Fatalf("flush triggered %d writebacks, want 20", got)
	}
	if flushDone == 0 {
		t.Fatal("flush never completed")
	}
	// All phantom lines gone from the private domain.
	k.Go("check", func(p *sim.Proc) {
		// Re-load triggers fresh onMiss.
		h.Load(p, 0, region.Base)
	})
	k.Run()
	if r.count(CbMiss) == 0 {
		t.Fatal("line still cached after flush")
	}
}

func TestCallbackLockSerializesAccess(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 4096, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k := sim.NewKernel()
	r := &fakeRunner{k: k, delay: 500} // slow callbacks
	h := New(k, DefaultConfig(1), energy.NewMeter(), reg, r)
	var first, second sim.Cycle
	k.Go("a", func(p *sim.Proc) {
		h.Load(p, 0, region.Base)
		first = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		p.Sleep(10) // arrive mid-callback
		h.Load(p, 0, region.Base)
		second = p.Now()
	})
	k.Run()
	if r.count(CbMiss) != 1 {
		t.Fatalf("onMiss calls = %d, want 1 (second access must reuse the fill)", r.count(CbMiss))
	}
	// Whichever access triggered the fill, neither may complete before
	// the 500-cycle callback does: the address is locked.
	if first < 500 || second < 500 {
		t.Fatalf("access completed before the callback: first=%d second=%d", first, second)
	}
}

func TestEngineRestrictionPanics(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 4096, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k, h, _ := newMorphH(1, reg)
	panicked := false
	k.Go("engine", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		// A PRIVATE-level callback touching PRIVATE Morph data: forbidden.
		h.EngineLoadWord(p, 0, region.Base, LevelPrivate)
	})
	k.Run()
	if !panicked {
		t.Fatal("restriction violation did not panic")
	}
}

func TestEngineAccessAllowedOnPlainData(t *testing.T) {
	k, h := newH(2)
	h.DRAM.Store().WriteU64(0x9000, 321)
	var got uint64
	k.Go("engine", func(p *sim.Proc) {
		got = h.EngineLoadWord(p, 0, 0x9000, LevelPrivate)
		h.EngineStoreWord(p, 0, 0x9008, 111, LevelShared)
	})
	k.Run()
	if got != 321 {
		t.Fatalf("engine load = %d", got)
	}
	if h.DebugReadWord(0x9008) != 111 {
		t.Fatal("engine store lost")
	}
}

func TestPrefetcherIssuesOnSequentialStream(t *testing.T) {
	k, h := newH(1)
	k.Go("core", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			h.Load(p, 0, mem.Addr(0x20_0000+i*64))
		}
	})
	k.Run()
	if h.Metrics.Get("prefetch.issued") == 0 {
		t.Fatal("sequential stream trained no prefetches")
	}
}

func TestPrefetchReducesMissLatency(t *testing.T) {
	run := func(degree int) sim.Cycle {
		k := sim.NewKernel()
		cfg := DefaultConfig(1)
		cfg.PrefetchDegree = degree
		h := New(k, cfg, energy.NewMeter(), nil, nil)
		var end sim.Cycle
		k.Go("core", func(p *sim.Proc) {
			for i := 0; i < 256; i++ {
				h.Load(p, 0, mem.Addr(0x20_0000+i*64))
				p.Sleep(20) // compute between loads: prefetch can run ahead
			}
			end = p.Now()
		})
		k.Run()
		return end
	}
	with, without := run(4), run(0)
	if with >= without {
		t.Fatalf("prefetching did not help: %d vs %d cycles", with, without)
	}
}

// TestPrefetcherStopsAtOtherTilesPrivatePhantom: tile 0 streams loads to
// the end of its PRIVATE phantom region, which tile 1's adjoins. The
// stream is confident by its third line, so its prefetches reach past the
// end; they must not cross into tile 1's region, whose onMiss would run
// on tile 0's engine.
func TestPrefetcherStopsAtOtherTilesPrivatePhantom(t *testing.T) {
	const lines = 4
	mine := mem.Region{Name: "ph0", Base: 0x4000_0000_0000, Size: lines * mem.LineSize, Phantom: true}
	theirs := mem.Region{Name: "ph1", Base: mine.End(), Size: lines * mem.LineSize, Phantom: true}
	b0, b1 := phantomBinding(mine, LevelPrivate), phantomBinding(theirs, LevelPrivate)
	b1.MorphID, b1.Tile = 2, 1
	k, h, r := newMorphH(2, &fakeRegistry{bindings: []Binding{b0, b1}})
	k.Go("core", func(p *sim.Proc) {
		for i := 0; i < lines; i++ {
			h.Load(p, 0, mine.Base+mem.Addr(i*mem.LineSize))
		}
	})
	k.Run()
	if h.Metrics.Get("prefetch.issued") == 0 {
		t.Fatal("the stream trained no prefetches")
	}
	for _, c := range r.calls {
		if c.kind == CbMiss && theirs.Contains(c.addr) {
			t.Fatalf("tile %d ran onMiss for %v, in tile 1's PRIVATE phantom region", c.tile, c.addr)
		}
	}
}

func TestScaledConfigLegalGeometry(t *testing.T) {
	for _, f := range []int{1, 2, 4, 8, 16, 64} {
		cfg := ScaledConfig(4, f)
		k := sim.NewKernel()
		h := New(k, cfg, energy.NewMeter(), nil, nil)
		k.Go("c", func(p *sim.Proc) { h.Load(p, 0, 0x1000) })
		k.Run()
	}
}

// Property-ish: a random mixed workload with Morphs keeps data correct
// and invariants intact.
func TestRandomWorkloadInvariants(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 1 << 20, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k := sim.NewKernel()
	r := &fakeRunner{k: k, delay: 3}
	cfg := DefaultConfig(2)
	cfg.L2Size = 16 * 1024
	cfg.L1Size = 2 * 1024
	h := New(k, cfg, energy.NewMeter(), reg, r)
	shadow := make(map[mem.Addr]uint64)
	k.Go("core", func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 3000; i++ {
			// Mix phantom and real addresses.
			var a mem.Addr
			if rng.Intn(2) == 0 {
				a = region.Base + mem.Addr(rng.Intn(2048)*64)
			} else {
				a = mem.Addr(0x40_0000 + rng.Intn(2048)*64)
			}
			if rng.Intn(2) == 0 && !region.Contains(a) {
				v := uint64(rng.Int63())
				h.Store(p, 0, a, v)
				shadow[a] = v
			} else {
				h.Load(p, 0, a)
			}
		}
	})
	k.Run()
	if err := h.CheckMorphInvariants(); err != nil {
		t.Fatal(err)
	}
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("blocked procs: %v", blocked)
	}
	for a, v := range shadow {
		if got := h.DebugReadWord(a); got != v {
			t.Fatalf("addr %v = %d, want %d", a, got, v)
		}
	}
}
