package hier

import (
	"testing"

	"tako/internal/mem"
	"tako/internal/sim"
)

// The engine-port API (§5.3) is exercised indirectly by every morph
// case study; these tests pin its contract directly: routing (SHARED
// callbacks bypass the private L2, PRIVATE callbacks cluster in it),
// coherence with the cores, read-modify-write semantics, async-load
// completion ordering, and persistence-domain accounting.

func TestEngineLoadRouting(t *testing.T) {
	k, h := newH(4)
	h.DRAM.Store().WriteU64(0x1000, 41)
	h.DRAM.Store().WriteU64(0x2000, 42)
	k.Go("engine", func(p *sim.Proc) {
		if v := h.EngineLoadWord(p, 0, 0x1000, LevelShared); v != 41 {
			t.Errorf("EngineLoadWord(shared) = %d, want 41", v)
		}
		if ln := h.EngineLoadLine(p, 0, 0x2000, LevelPrivate); ln.U64(0) != 42 {
			t.Errorf("EngineLoadLine(private) word 0 = %d, want 42", ln.U64(0))
		}
	})
	k.Run()
	tl := h.tiles[0]
	// SHARED-level fills go from the engine L1d straight to the shared
	// level: the private L2 must not hold the line.
	if tl.el1.Lookup(0x1000) == nil {
		t.Error("shared-level engine load did not fill the engine L1d")
	}
	if tl.l2.Lookup(0x1000) != nil {
		t.Error("shared-level engine load leaked into the private L2")
	}
	// PRIVATE-level fills cluster within the tile: the L2 holds them.
	if tl.l2.Lookup(0x2000) == nil {
		t.Error("private-level engine load did not fill the private L2")
	}
}

func TestEngineStoreCoherentWithCore(t *testing.T) {
	k, h := newH(4)
	k.Go("engine", func(p *sim.Proc) {
		h.EngineStoreWord(p, 1, 0x3000, 777, LevelPrivate)
		if v := h.EngineLoadWord(p, 1, 0x3000, LevelPrivate); v != 777 {
			t.Errorf("engine readback = %d, want 777", v)
		}
		// A core on another tile must observe the engine's store through
		// the ordinary coherence protocol.
		if v := h.Load(p, 2, 0x3000); v != 777 {
			t.Errorf("cross-tile core load = %d, want 777", v)
		}
	})
	k.Run()
}

func TestEngineStoreLineAndRMW(t *testing.T) {
	k, h := newH(2)
	var line mem.Line
	line.SetU64(0, 100)
	line.SetU64(8, 200)
	k.Go("engine", func(p *sim.Proc) {
		h.EngineStoreLine(p, 0, 0x4000, &line, LevelShared)
		h.EngineRMWWord(p, 0, 0x4000, RMOAdd, 5, LevelShared)
		h.EngineRMWWord(p, 0, 0x4008, RMOAdd, 30, LevelShared)
		if v := h.EngineLoadWord(p, 0, 0x4000, LevelShared); v != 105 {
			t.Errorf("atomic add result = %d, want 105", v)
		}
		if v := h.EngineLoadWord(p, 0, 0x4008, LevelShared); v != 230 {
			t.Errorf("RMW add result = %d, want 230", v)
		}
	})
	k.Run()
}

// TestEnginePersistLine checks the §8.3 persistence contract: the write
// is visible through the cache AND reaches the backing (NV)DRAM before
// the call returns, with the write accounted to the persistence domain.
func TestEnginePersistLine(t *testing.T) {
	k, h := newH(2)
	var line mem.Line
	line.SetU64(0, 0xDEAD)
	wbefore := h.DRAM.Writes
	k.Go("engine", func(p *sim.Proc) {
		h.EnginePersistLine(p, 0, 0x7000, &line, LevelShared)
		if v := h.EngineLoadWord(p, 0, 0x7000, LevelShared); v != 0xDEAD {
			t.Errorf("cached readback = %#x, want 0xdead", v)
		}
	})
	k.Run()
	// Durable: the backing store holds the data even though the cached
	// copy is dirty and was never evicted.
	if v := h.DRAM.Store().ReadU64(0x7000); v != 0xDEAD {
		t.Errorf("DRAM readback = %#x, want 0xdead (persist did not reach the persistence domain)", v)
	}
	if got := h.DRAM.Writes - wbefore; got != 1 {
		t.Errorf("DRAM writes = %d, want exactly 1 (the persist)", got)
	}
}
