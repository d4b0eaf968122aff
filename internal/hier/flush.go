package hier

import (
	"tako/internal/mem"
	"tako/internal/sim"
)

// FlushRegion implements flushData (§4.4): walk the tag arrays at the
// given level, evict every line in the region — triggering onWriteback
// or onEviction for Morph lines — and block until all callbacks
// complete, guaranteeing no further racing writes from callbacks.
//
// PRIVATE flushes walk tileID's L2; SHARED flushes walk every L3 bank.
// A PRIVATE flush of a phantom region also evicts the copies other tiles
// hold: a demand access from another tile leaves one (its prefetcher
// stops at the region, see issuePrefetch), and a phantom line left in
// any private domain would outlive its Morph's binding once Unregister
// drops it.
// Only tiles that hold such a line pay a tag walk. A real region's copies
// elsewhere are plain memory once unbound, so callers sweep those tiles
// themselves when they need to.
func (h *Hierarchy) FlushRegion(p *sim.Proc, tileID int, region mem.Region, level Level) {
	h.emit("flush", "flush.start", region.String())
	switch level {
	case LevelPrivate:
		h.flushPrivate(p, tileID, region)
		if region.Phantom {
			for i, t := range h.tiles {
				if i != tileID && t.holdsAny(region) {
					h.flushPrivate(p, i, region)
				}
			}
		}
	case LevelShared:
		for t := 0; t < h.cfg.Tiles; t++ {
			h.flushWalk(p, LevelShared, t, region)
		}
	default:
		h.flushPrivate(p, tileID, region)
		for t := 0; t < h.cfg.Tiles; t++ {
			h.flushWalk(p, LevelShared, t, region)
		}
	}
	// Every eviction callback, this flush's and those triggered by
	// evictions before it, is counted in its tile's cbInflight until it
	// is done and has released its line: flushData guarantees no further
	// racing writes from any callback (§4.4).
	for _, t := range h.tiles {
		t.cbInflight.Wait(p)
	}
	h.event("flush")
	h.emit("flush", "flush.done", region.String())
}

// flushPrivate evicts region's lines from one tile's private domain.
func (h *Hierarchy) flushPrivate(p *sim.Proc, tileID int, region mem.Region) {
	t := h.tiles[tileID]
	h.flushWalk(p, LevelPrivate, tileID, region)
	// Lines cached above the L2 but inside the region: engine lines
	// fetched around the L2 (shared-callback path) live only in the
	// engine L1d, so their dirty data must reach the shared level.
	for _, c := range t.privateCaches() {
		for _, la := range c.LinesInRegion(region) {
			if ls, ok := c.ExtractLine(la); ok {
				if ls.Dirty {
					h.writebackToShared(tileID, la, ls.Data)
				} else {
					h.removeSharerIfNoCopies(tileID, la)
				}
			}
		}
	}
}

// flushWalk evicts region's lines from one tile's L2 (level PRIVATE) or
// L3 bank (SHARED), each in place through the eviction pipeline. A line
// whose lock is held (in the tile's pending table or the bank's
// home-line table) is waited out and retried on a later pass; a pass
// that evicted nothing waits a cycle before the next.
func (h *Hierarchy) flushWalk(p *sim.Proc, level Level, tileID int, region mem.Region) {
	t := h.tiles[tileID]
	c, locks := t.l2, &t.pending
	if level == LevelShared {
		c, locks = t.l3, &t.l3pending
	}
	// Tag-walk cost: the controller checks four tags per cycle.
	p.Sleep(sim.Cycle(c.NumSets()/4 + 1))
	for {
		lines := c.LinesInRegion(region)
		if len(lines) == 0 {
			break
		}
		progressed := false
		for _, la := range lines {
			if f := locks.waitOn(la); f != nil {
				p.Wait(f)
				continue
			}
			ls, ok := c.ExtractLine(la)
			if !ok {
				continue
			}
			progressed = true
			h.hot.flushLines.Inc()
			if level == LevelShared {
				h.handleL3Eviction(tileID, la, ls)
			} else {
				h.handleL2Eviction(tileID, la, ls)
			}
		}
		if !progressed {
			p.Sleep(1)
		}
	}
}

// InvalidateRegion drops region's lines from every cache without
// callbacks; used when registering a Morph over existing data so stale
// copies cannot bypass the new semantics (§4.1: "when a Morph is
// registered or unregistered, its address range is flushed"). Dirty data
// reaches memory first, the newest copy of each line: every tile's
// newest private copy goes into the line's home-bank copy (or to memory
// when the bank holds none), and then each bank's dirty lines go to
// memory.
func (h *Hierarchy) InvalidateRegion(p *sim.Proc, region mem.Region) {
	for i, t := range h.tiles {
		for _, c := range t.privateCaches() {
			for _, la := range c.LinesInRegion(region) {
				data, dirty, _ := h.invalidatePrivate(i, la)
				if !dirty {
					continue
				}
				if ls3 := h.tiles[h.HomeTile(la)].l3.Lookup(la); ls3 != nil {
					ls3.Data, ls3.Dirty = data, true
				} else {
					h.DRAM.WriteLine(la, &data)
				}
			}
		}
	}
	for _, t := range h.tiles {
		for _, la := range t.l3.LinesInRegion(region) {
			if ls, ok := t.l3.ExtractLine(la); ok {
				h.dir.delete(la)
				if ls.Dirty {
					h.DRAM.WriteLine(la, &ls.Data)
				}
			}
		}
		p.Sleep(sim.Cycle(t.l3.NumSets()))
	}
}
