package hier

import (
	"tako/internal/mem"
	"tako/internal/sim"
)

// Engine memory port (§5.3): callbacks access memory through the tile
// engine's coherent L1d. Accesses from PRIVATE-level callbacks route
// through the tile's L2 (clustered within the tile); SHARED-level
// callbacks go from the engine L1d straight to the shared level, since
// they run at the L3 bank. Fills issued here are marked engine fills so
// trrîp inserts them at distant re-reference priority (§5.2).
//
// Every engine access blocks the callback that issued it until its
// transaction is done, and translates through the engine's rTLB for
// timing, in the transaction's Idle state as a core access uses the
// dTLB; the rTLB's reach only needs to cover cached data (§6).

func (h *Hierarchy) engineOpts(cbLevel Level, write bool) accessOpts {
	return accessOpts{
		write:   write,
		engine:  true,
		viaL2:   cbLevel == LevelPrivate,
		cbLevel: cbLevel,
	}
}

// EngineLoadWord loads the 8-byte word containing a on tileID's engine.
func (h *Hierarchy) EngineLoadWord(p *sim.Proc, tileID int, a mem.Addr, cbLevel Level) uint64 {
	ls := h.access(p, tileID, a, h.engineOpts(cbLevel, false))
	if h.obs != nil {
		h.obs.EngineAccess(tileID, a, false)
	}
	return ls.Data.U64(a.Offset() &^ 7)
}

// EngineLoadLine loads the full line containing a on tileID's engine
// (callback operations are line-wide SIMD, §5.3).
func (h *Hierarchy) EngineLoadLine(p *sim.Proc, tileID int, a mem.Addr, cbLevel Level) mem.Line {
	ls := h.access(p, tileID, a, h.engineOpts(cbLevel, false))
	if h.obs != nil {
		h.obs.EngineAccess(tileID, a, false)
	}
	return ls.Data
}

// EngineStoreWord writes the 8-byte word containing a on tileID's engine.
func (h *Hierarchy) EngineStoreWord(p *sim.Proc, tileID int, a mem.Addr, v uint64, cbLevel Level) {
	ls := h.access(p, tileID, a, h.engineOpts(cbLevel, true))
	ls.Data.SetU64(a.Offset()&^7, v)
	ls.Dirty = true
	if h.obs != nil {
		h.obs.EngineAccess(tileID, a, true)
	}
	h.event("engine.store")
}

// EngineStoreLine writes a full line on tileID's engine.
func (h *Hierarchy) EngineStoreLine(p *sim.Proc, tileID int, a mem.Addr, data *mem.Line, cbLevel Level) {
	ls := h.access(p, tileID, a, h.engineOpts(cbLevel, true))
	ls.Data = *data
	ls.Dirty = true
	if h.obs != nil {
		h.obs.EngineAccess(tileID, a, true)
	}
	h.event("engine.store")
}

// EngineRMWWord performs a commutative read-modify-write with operator
// op on tileID's engine (PHI-style in-place application for arbitrary
// commutative operators).
func (h *Hierarchy) EngineRMWWord(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, v uint64, cbLevel Level) {
	ls := h.access(p, tileID, a, h.engineOpts(cbLevel, true))
	off := a.Offset() &^ 7
	ls.Data.SetU64(off, op.apply(ls.Data.U64(off), v))
	ls.Dirty = true
	if h.obs != nil {
		h.obs.EngineAccess(tileID, a, true)
	}
	h.event("engine.rmw")
}

// EnginePersistLine writes a line durably: the data is stored through
// the cache AND written to (NV)DRAM, modeling a write that must reach
// the persistence domain (§8.3).
func (h *Hierarchy) EnginePersistLine(p *sim.Proc, tileID int, a mem.Addr, data *mem.Line, cbLevel Level) {
	h.EngineStoreLine(p, tileID, a, data, cbLevel)
	p.Wait(h.DRAM.WriteLine(a.Line(), data))
}
