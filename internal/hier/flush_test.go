package hier

import (
	"testing"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

// TestSharedFlushRecallsDirtyDataFromOwnerTile: a SHARED-level flush
// issued by one tile must recall dirty data held in another tile's
// private domain (back-invalidation through the directory) before the
// line reaches memory.
func TestSharedFlushRecallsDirtyDataFromOwnerTile(t *testing.T) {
	k, h := newH(4)
	region := mem.Region{Name: "r", Base: 0x7000, Size: 4 * mem.LineSize}
	k.Go("seq", func(p *sim.Proc) {
		// Tile 1 dirties every line; the newest data lives in its L1.
		for i := 0; i < 4; i++ {
			h.Store(p, 1, region.Base+mem.Addr(i*mem.LineSize), uint64(100+i))
		}
		// Tile 0 — not the owner — flushes at the shared level.
		h.FlushRegion(p, 0, region, LevelShared)
	})
	k.Run()
	for i := 0; i < 4; i++ {
		a := region.Base + mem.Addr(i*mem.LineSize)
		if got := h.DRAM.Store().ReadU64(a); got != uint64(100+i) {
			t.Fatalf("DRAM[%v] = %d, want %d (dirty data lost in flush)", a, got, 100+i)
		}
	}
	// The owner's private copies were back-invalidated, not orphaned.
	owner := h.tiles[1]
	for i := 0; i < 4; i++ {
		a := region.Base + mem.Addr(i*mem.LineSize)
		if owner.l1.Lookup(a) != nil || owner.l2.Lookup(a) != nil {
			t.Fatalf("tile 1 still caches %v after shared flush", a)
		}
	}
	if h.Metrics.Get("l3.backinval") == 0 {
		t.Fatal("flush of remotely-owned dirty lines recorded no back-invalidations")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedFlushPhantomLines: flushing a phantom range at the shared
// level runs onWriteback (with the final data) for dirty lines and
// onEviction for clean ones, at the home tile, discarding the lines so
// the next access re-materializes through onMiss (§4.3, §4.4).
func TestSharedFlushPhantomLines(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 64 * 1024, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelShared)}}
	k, h, r := newMorphH(4, reg)
	r.fill = func(kind CallbackKind, a mem.Addr, line *mem.Line) {
		if kind == CbMiss {
			line.SetWord(0, 42)
		}
	}
	dirty := region.Base                // written via remote add
	clean := region.Base + mem.LineSize // only loaded
	k.Go("core", func(p *sim.Proc) {
		h.AtomicAdd(p, 2, dirty, 8)
		h.DrainRMOs(p, 2)
		if v := h.Load(p, 2, clean); v != 42 {
			t.Errorf("phantom load = %d, want onMiss fill 42", v)
		}
		h.FlushRegion(p, 2, region, LevelShared)
	})
	k.Run()
	if got := r.count(CbWriteback); got != 1 {
		t.Fatalf("flush ran %d onWriteback, want 1 (the dirty line)", got)
	}
	if got := r.count(CbEviction); got != 1 {
		t.Fatalf("flush ran %d onEviction, want 1 (the clean line)", got)
	}
	home := h.HomeTile(dirty)
	for _, call := range r.calls {
		switch call.kind {
		case CbWriteback:
			if call.data.Word(0) != 50 {
				t.Fatalf("onWriteback saw word0 = %d, want 42+8 = 50", call.data.Word(0))
			}
			if call.tile != home {
				t.Fatalf("onWriteback ran on tile %d, want home %d", call.tile, home)
			}
		case CbEviction:
			if call.tile != h.HomeTile(clean) {
				t.Fatalf("onEviction ran on tile %d, want home %d", call.tile, h.HomeTile(clean))
			}
		}
	}
	// The reader's private copy of the clean line is gone too.
	reader := h.tiles[2]
	if reader.l1.Lookup(clean) != nil || reader.l2.Lookup(clean) != nil {
		t.Fatal("tile 2 still caches the phantom line after shared flush")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Phantom data is discarded on flush: re-access starts over via onMiss.
	missesBefore := r.count(CbMiss)
	k.Go("again", func(p *sim.Proc) {
		h.AtomicAdd(p, 0, dirty, 8)
		h.DrainRMOs(p, 0)
	})
	k.Run()
	if r.count(CbMiss) != missesBefore+1 {
		t.Fatalf("onMiss calls = %d, want %d (line must be gone after flush)",
			r.count(CbMiss), missesBefore+1)
	}
}

// TestFlushRacesInFlightFill: a flush that walks the tags while an
// onMiss fill for the region is still in flight must neither deadlock
// nor corrupt state. The in-flight line is not yet visible to the tag
// walk, so it lands after the flush; a subsequent flush evicts it
// normally.
func TestFlushRacesInFlightFill(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 4096, Phantom: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate)}}
	k := sim.NewKernel()
	r := &fakeRunner{k: k, delay: 400} // slow onMiss: the fill stays in flight
	r.fill = func(kind CallbackKind, a mem.Addr, line *mem.Line) {
		if kind == CbMiss {
			line.SetWord(0, 42)
		}
	}
	h := New(k, DefaultConfig(2), energy.NewMeter(), reg, r)
	var v uint64
	var loadDone, flushDone sim.Cycle
	k.Go("loader", func(p *sim.Proc) {
		v = h.Load(p, 0, region.Base)
		loadDone = p.Now()
	})
	k.Go("flusher", func(p *sim.Proc) {
		p.Sleep(10) // arrive while the 400-cycle onMiss is running
		h.FlushRegion(p, 0, region, LevelPrivate)
		flushDone = p.Now()
	})
	k.Run()
	if blocked := k.Blocked(); len(blocked) != 0 {
		t.Fatalf("flush racing an in-flight fill deadlocked: %v", blocked)
	}
	if flushDone >= loadDone {
		t.Fatalf("race not exercised: flush finished at %d, after the fill at %d", flushDone, loadDone)
	}
	if v != 42 {
		t.Fatalf("racing load = %d, want the onMiss fill 42", v)
	}
	// The fill was invisible to the flush's tag walk, so no eviction
	// callback ran and the line is resident now.
	if n := r.count(CbEviction) + r.count(CbWriteback); n != 0 {
		t.Fatalf("flush ran %d eviction callbacks for a line not yet filled", n)
	}
	if h.tiles[0].l2.Lookup(region.Base) == nil {
		t.Fatal("in-flight fill lost: line absent after load completed")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A second flush sees the landed (clean) line and evicts it via
	// onEviction.
	k.Go("reflush", func(p *sim.Proc) {
		h.FlushRegion(p, 0, region, LevelPrivate)
	})
	k.Run()
	if got := r.count(CbEviction); got != 1 {
		t.Fatalf("re-flush ran %d onEviction, want 1", got)
	}
	if h.tiles[0].l2.Lookup(region.Base) != nil {
		t.Fatal("line survived the second flush")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPrivatePhantomFlushEvictsOtherTilesCopies: a PRIVATE phantom flush
// must leave no line of the region in any tile's private domain, or the
// Morph is unregistered with a line still cached under it. Tile 1 holds
// a line of tile 0's region, which its demand load left; the flush at
// tile 0 evicts it through its callback. A real region's copy on tile 1 stays: it is plain memory once
// unbound.
func TestPrivatePhantomFlushEvictsOtherTilesCopies(t *testing.T) {
	region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 4096, Phantom: true}
	real := mem.Region{Name: "real", Base: 0x10000, Size: 4096}
	realB := Binding{MorphID: 2, Level: LevelPrivate, Region: real, HasMiss: true}
	reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, LevelPrivate), realB}}
	k := sim.NewKernel()
	r := &fakeRunner{k: k}
	h := New(k, DefaultConfig(2), energy.NewMeter(), reg, r)
	k.Go("stray", func(p *sim.Proc) {
		h.Load(p, 0, region.Base)
		h.Load(p, 1, region.Base+mem.LineSize)
		h.Load(p, 1, real.Base)
		h.FlushRegion(p, 0, region, LevelPrivate)
		h.FlushRegion(p, 0, real, LevelPrivate)
	})
	k.Run()
	for tile := 0; tile < 2; tile++ {
		if lines := h.tiles[tile].l2.LinesInRegion(region); len(lines) != 0 {
			t.Fatalf("tile %d still caches %v of the flushed phantom region", tile, lines)
		}
	}
	if got := r.count(CbEviction); got != 2 {
		t.Fatalf("flush ran %d onEviction callbacks, want 2 (one per tile's line)", got)
	}
	if h.tiles[1].l2.Lookup(real.Base) == nil {
		t.Fatal("a real region's flush at tile 0 evicted tile 1's copy")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushWaitsForEveryCallback: flushData returns only after every
// eviction callback is done (§4.4), both the flush's own and those the
// stores before it triggered, at either level. The caches are shrunk so
// that the stores evict region lines themselves, and each callback takes
// 500 cycles, so many are still running when the flush starts.
func TestFlushWaitsForEveryCallback(t *testing.T) {
	for _, tc := range []struct {
		level Level
		lines int // stores, one per line: well beyond the level's room
	}{
		{LevelPrivate, 64},
		{LevelShared, 320},
	} {
		t.Run(tc.level.String(), func(t *testing.T) {
			region := mem.Region{Name: "ph", Base: 0x4000_0000_0000, Size: 1 << 20, Phantom: true}
			reg := &fakeRegistry{bindings: []Binding{phantomBinding(region, tc.level)}}
			k := sim.NewKernel()
			r := &fakeRunner{k: k, delay: 500}
			h := New(k, ScaledConfig(2, 64), energy.NewMeter(), reg, r)
			var start, end sim.Cycle
			k.Go("core", func(p *sim.Proc) {
				for i := 0; i < tc.lines; i++ {
					h.Store(p, 0, region.Base+mem.Addr(i*mem.LineSize), uint64(i))
				}
				start = p.Now()
				h.FlushRegion(p, 0, region, tc.level)
				end = p.Now()
			})
			k.Run()
			before, evictions := 0, 0
			for _, c := range r.calls {
				if c.kind == CbMiss {
					continue
				}
				evictions++
				if c.at < start {
					before++
				}
				if done := c.at + r.delay; done > end {
					t.Errorf("%v callback for %v started at %d and ended at %d, after the flush returned at %d",
						c.kind, c.addr, c.at, done, end)
				}
			}
			if before == 0 || before == evictions {
				t.Fatalf("%d of %d eviction callbacks started before the flush; want some before and some from it", before, evictions)
			}
			// Lines the prefetcher fetched past the last store may land
			// after the flush, as any fill in flight does; the stored
			// lines may not.
			for i := 0; i < tc.lines; i++ {
				a := region.Base + mem.Addr(i*mem.LineSize)
				for _, tl := range h.tiles {
					if tl.l2.Contains(a) || tl.l3.Contains(a) {
						t.Fatalf("tile %d still caches %v after the flush", tl.id, a)
					}
				}
			}
			if err := h.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSharedFlushWaitsOutHomeLockedLine: a SHARED flush walk that meets
// a line whose home line an RMO holds waits for the lock and evicts the
// line on a later pass, so the RMO's update reaches memory. Evicting it
// at once would write back the value before the update and leave the
// RMO committing to a line no longer cached.
func TestSharedFlushWaitsOutHomeLockedLine(t *testing.T) {
	k := sim.NewKernel()
	h := New(k, ScaledConfig(1, 64), energy.NewMeter(), nil, nil)
	const x = mem.Addr(0x9000)
	region := mem.Region{Name: "x", Base: x, Size: mem.LineSize}
	const rmoAt = 300
	k.Go("rmo", func(p *sim.Proc) {
		h.Store(p, 0, x, 5)
		h.FlushRegion(p, 0, region, LevelPrivate) // X is now dirty only in L3
		if p.Now() >= rmoAt {
			t.Errorf("setup ran until cycle %d, past the RMO's %d", p.Now(), rmoAt)
		}
		p.Sleep(rmoAt - p.Now())
		h.AtomicAdd(p, 0, x, 7)
		h.DrainRMOs(p, 0)
	})
	k.Go("flush", func(p *sim.Proc) {
		p.Sleep(rmoAt + 1) // the walk reaches X while the RMO holds its home line
		h.FlushRegion(p, 0, region, LevelShared)
	})
	k.Run()
	if got := h.DebugReadWord(x); got != 12 {
		t.Errorf("X reads %d, want 5+7 = 12", got)
	}
	if got := h.DRAM.Store().ReadU64(x); got != 12 {
		t.Errorf("DRAM holds %d for X, want 12", got)
	}
	if h.tiles[0].l3.Lookup(x) != nil {
		t.Error("X is still in L3 after the shared flush")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
