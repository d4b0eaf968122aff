package engine

import (
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

// Ctx is the environment a callback executes in. The triggering address
// is locked for the callback's duration (§4.3); its line is accessed
// directly through Line. All other memory goes through the engine's
// coherent L1d, paying modeled latency — and must respect täkō's
// restriction: no access to data with a Morph at the same or a higher
// level (enforced by the hierarchy, which panics on violations).
//
// A Ctx is valid only during its callback: it lives in the engine's
// pooled callback record, which zeroes it when the callback ends and
// reuses it for a later one, so a Morph must not keep it.
type Ctx struct {
	P       *sim.Proc
	Tile    int
	Level   hier.Level
	Kind    hier.CallbackKind
	MorphID int

	// Addr is the (line-aligned) address that triggered the callback;
	// Line is its data: onMiss fills it, eviction callbacks read it.
	Addr mem.Addr
	Line *mem.Line

	engines  *Engines
	tile     *engTile
	view     interface{}
	extraOps int
}

// View returns the engine-local view of the Morph object on this tile
// (per-engine state shared by this engine's callbacks, §4.2).
func (c *Ctx) View() interface{} { return c.view }

// Compute charges n additional data-dependent fabric operations beyond
// the callback's static cost (e.g., per-element work discovered at run
// time).
func (c *Ctx) Compute(n int) {
	if n > 0 {
		c.extraOps += n
	}
}

// LoadWord loads the 8-byte word at a through the engine L1d.
func (c *Ctx) LoadWord(a mem.Addr) uint64 {
	c.tile.stats.MemAccesses++
	return c.engines.h.EngineLoadWord(c.P, c.Tile, a, c.Level)
}

// LoadLine loads the full line containing a.
func (c *Ctx) LoadLine(a mem.Addr) mem.Line {
	c.tile.stats.MemAccesses++
	return c.engines.h.EngineLoadLine(c.P, c.Tile, a, c.Level)
}

// StoreWord writes the 8-byte word at a through the engine L1d.
func (c *Ctx) StoreWord(a mem.Addr, v uint64) {
	c.tile.stats.MemAccesses++
	c.engines.h.EngineStoreWord(c.P, c.Tile, a, v, c.Level)
}

// StoreLine writes a full line.
func (c *Ctx) StoreLine(a mem.Addr, data *mem.Line) {
	c.tile.stats.MemAccesses++
	c.engines.h.EngineStoreLine(c.P, c.Tile, a, data, c.Level)
}

// StoreLineNT writes a full line non-temporally (no read-for-ownership,
// no cache allocation); used for streaming appends like PHI's bins.
func (c *Ctx) StoreLineNT(a mem.Addr, data *mem.Line) {
	c.tile.stats.MemAccesses++
	c.engines.h.StoreLineNT(c.P, c.Tile, a, data)
}

// AtomicAddWord adds delta to the word at a (read-modify-write at the
// engine; used by PHI to apply buffered updates in place, §8.1).
func (c *Ctx) AtomicAddWord(a mem.Addr, delta uint64) {
	c.tile.stats.MemAccesses++
	c.engines.h.EngineRMWWord(c.P, c.Tile, a, hier.RMOAdd, delta, c.Level)
}

// RMWWord performs a commutative read-modify-write with the given
// operator at the engine (min/max/add).
func (c *Ctx) RMWWord(a mem.Addr, op hier.RMOOp, v uint64) {
	c.tile.stats.MemAccesses++
	c.engines.h.EngineRMWWord(c.P, c.Tile, a, op, v, c.Level)
}

// AtomicAddRemote pushes a commutative add to the shared level as a
// remote memory operation. PRIVATE-level callbacks use it to forward
// updates into a SHARED Morph's range — the allowed direction of §4.3's
// restriction ("a PRIVATE callback can trigger a SHARED callback") and
// the mechanism behind hierarchical PHI [95].
func (c *Ctx) AtomicAddRemote(a mem.Addr, delta uint64) {
	if c.Level == hier.LevelShared {
		panic("täkō restriction (§4.3): SHARED callbacks may not issue RMOs that could re-enter SHARED Morphs")
	}
	c.tile.stats.MemAccesses++
	c.engines.h.AtomicAddSync(c.P, c.Tile, a, delta)
}

// PersistLine writes a line through to the persistence domain (NVM
// transactions, §8.3).
func (c *Ctx) PersistLine(a mem.Addr, data *mem.Line) {
	c.tile.stats.MemAccesses++
	c.engines.h.EnginePersistLine(c.P, c.Tile, a, data, c.Level)
}

// RaiseInterrupt delivers a user-space interrupt to software (§4.3,
// §8.4) — e.g., the side-channel Morph interrupting the victim thread
// when secure data is evicted.
func (c *Ctx) RaiseInterrupt() {
	c.tile.stats.Interrupts++
	if c.engines.Interrupt != nil {
		c.engines.Interrupt(c.Tile, c.MorphID, c.Addr)
	}
}
