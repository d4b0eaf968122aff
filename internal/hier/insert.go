package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/energy"
	"tako/internal/mem"
)

// insertL2 installs a line into tile's private L2, handling the evicted
// victim. It never sleeps (functional effects are immediate; eviction
// timing runs as kernel continuations, writeback.go), so callers may
// treat it as atomic. It returns false when the set has no way the line
// may replace; callers retry.
func (h *Hierarchy) insertL2(tileID int, a mem.Addr, data *mem.Line, opts cache.FillOpts) bool {
	t := h.tiles[tileID]
	// When writeback-buffer entries are exhausted, evicting a Morph
	// line would stall on callback resources, so a callback-free victim
	// is preferred (§5.2 deadlock avoidance), as are lines no software
	// replacement hint protects (the onReplacement extension); Insert
	// relaxes both when no way qualifies.
	tag, old, evicted, ok := t.l2.Insert(a, data, opts, cache.VictimConstraint{
		CallbackFree: t.wbbuf.Saturated(),
		Avoid:        h.protectedFn,
	})
	if !ok {
		return false
	}
	if evicted {
		h.handleL2Eviction(tileID, tag, old)
	}
	h.event("l2.insert")
	return true
}

// handleL2Eviction processes line la, evicted from tile's L2 with state
// ev: back-invalidates L1 copies, triggers Morph callbacks, and writes
// dirty data back to the shared level. Functional state changes happen
// immediately; latency and buffer occupancy are charged by kernel
// continuations (writeback.go).
func (h *Hierarchy) handleL2Eviction(tileID int, la mem.Addr, ev cache.LineState) {
	t := h.tiles[tileID]
	// Back-invalidate the tile's L1 copies (inclusion), merging dirty
	// data into the evicted line.
	for _, c := range [2]*cache.Cache{t.l1, t.el1} {
		if ls, ok := c.ExtractLine(la); ok && ls.Dirty {
			ev.Data = ls.Data
			ev.Dirty = true
		}
	}
	if ev.Morph && h.morphEvict(LevelPrivate, tileID, la, ev) {
		return
	}
	if ev.Phantom {
		// A phantom line without a live Morph can only appear if a
		// Morph was unregistered without flushing — a core-package
		// bug.
		panic(fmt.Sprintf("hier: phantom line %v evicted with no Morph bound", la))
	}
	if ev.Dirty {
		h.writebackToShared(tileID, la, ev.Data)
	} else {
		h.removeSharerIfNoCopies(tileID, la)
	}
}

// morphEvict runs the Morph callback for line la, evicted with state ev
// from tile's private L2 (level PRIVATE) or from its L3 bank (SHARED),
// and reports whether a Morph is bound to la. Table 1 semantics:
// onWriteback for dirty lines, onEviction for clean ones; phantom lines
// are then discarded, and a real line's dirty data goes on to the next
// level, the home bank or DRAM (§4.3). The line's lock is held until
// the callback completes; an evictCB (writeback.go) runs the callback
// and keeps those books.
func (h *Hierarchy) morphEvict(level Level, tileID int, la mem.Addr, ev cache.LineState) bool {
	if h.registry == nil {
		return false
	}
	b, ok := h.registry.Binding(la)
	if !ok {
		return false
	}
	shared := level == LevelShared
	kind := CbEviction
	has := b.HasEviction
	if ev.Dirty {
		kind, has = CbWriteback, b.HasWriteback
	}
	// Real-address Morph lines keep load-store semantics: the dirty
	// data reaches the backing store regardless of the callback.
	if !b.Phantom && ev.Dirty {
		if shared {
			h.DRAM.WriteLine(la, &ev.Data)
		} else {
			h.writebackToShared(tileID, la, ev.Data)
		}
	}
	if !has || h.runner == nil {
		h.hot.cbSkipped.Inc()
		return true
	}
	h.hot.cb[kind].Inc()
	if h.tracer != nil {
		comp := h.comp.l2[tileID]
		if shared {
			comp = h.comp.l3[tileID]
		}
		h.emit(comp, "cb."+kind.String(), la.String())
	}
	t := h.tiles[tileID]
	c := h.getEvictCB()
	c.tile, c.shared, c.kind, c.b, c.la = tileID, shared, kind, b, la
	c.lock = h.K.GetFuture()
	c.data = ev.Data
	// A private eviction takes the line's pending lock at once,
	// superseding an in-flight fill's. A bank's eviction takes the home
	// line's lock at once only when it is free: the callback now owns
	// this line's data, and a fetch re-materializing the line (and
	// accepting stores) before the writeback callback ran would have its
	// updates clobbered when the callback finally persisted the older
	// evicted data. When a home-side operation holds the lock, the evictCB
	// queues politely behind it.
	switch {
	case !shared:
		c.tok, c.locked = t.pending.lockWith(la, c.lock), true
	case !t.l3pending.locked(la):
		c.tok, c.locked = t.l3pending.lockWith(la, c.lock), true
	}
	t.cbInflight.Add(1)
	h.K.AfterTask(0, c)
	return true
}

// writebackToShared applies a dirty private line to its home L3 bank (or
// DRAM if the L3 no longer holds it), immediately; transfer latency and
// writeback-buffer occupancy are charged asynchronously, by a wbTiming
// (writeback.go).
func (h *Hierarchy) writebackToShared(tileID int, la mem.Addr, data mem.Line) {
	home := h.HomeTile(la)
	hm := h.tiles[home]
	if ls3 := hm.l3.Lookup(la); ls3 != nil {
		ls3.Data = data
		ls3.Dirty = true
		if h.cfg.FreshChecks {
			h.debugLogHome(la, fmt.Sprintf("writebackToShared(from=%d)", tileID), data.U64(16))
		}
	} else {
		h.DRAM.WriteLine(la, &data)
	}
	if e := h.dir.get(la); e != nil && e.owner == tileID {
		e.owner = -1
	}
	h.removeSharerIfNoCopies(tileID, la)
	h.event("l2.writeback")
	h.hot.l2Writebacks.Inc()
	h.Meter.Add(energy.L3Access, 1)
	w := h.getWBTiming()
	w.tile, w.home = tileID, home
	h.K.AfterTask(0, w)
}

// insertL3 installs a line into its home bank (tile homeID), handling
// the victim: back-invalidation of private copies, Morph callbacks at
// the home engine, and DRAM writeback. It never blocks. A line whose
// home-line lock is held is never the victim (Busy), so it returns false
// when every way is locked; the filling transaction retries after a
// cycle.
func (h *Hierarchy) insertL3(homeID int, a mem.Addr, data *mem.Line, opts cache.FillOpts) bool {
	hm := h.tiles[homeID]
	tag, old, evicted, ok := hm.l3.Insert(a, data, opts, cache.VictimConstraint{
		CallbackFree: hm.wbbuf.Saturated(),
		Avoid:        h.protectedFn,
		Busy:         hm.l3Busy,
	})
	if !ok {
		return false
	}
	h.debugLogHome(a.Line(), "insertL3", data.U64(16))
	if evicted {
		h.debugLogHome(tag, "l3-evict", old.Data.U64(16))
		h.handleL3Eviction(homeID, tag, old)
	}
	h.event("l3.insert")
	return true
}

// handleL3Eviction processes line la, leaving the shared cache with
// state ev: back-invalidate all private copies (inclusive hierarchy),
// run the SHARED Morph callback if registered, write dirty data to
// memory.
func (h *Hierarchy) handleL3Eviction(homeID int, la mem.Addr, ev cache.LineState) {
	if e := h.dir.get(la); e != nil {
		for s := 0; s < h.cfg.Tiles; s++ {
			if !e.has(s) {
				continue
			}
			data, dirty, present := h.invalidatePrivate(s, la)
			if dirty {
				ev.Data = data
				ev.Dirty = true
			}
			if present {
				h.hot.l3Backinval.Inc()
				h.Mesh.Transfer(homeID, s, 8)
				bytes := 8
				if dirty {
					bytes = mem.LineSize
				}
				h.Mesh.Transfer(s, homeID, bytes)
			}
		}
		h.dir.delete(la)
	}
	if ev.Morph && h.morphEvict(LevelShared, homeID, la, ev) {
		return
	}
	if ev.Phantom {
		panic(fmt.Sprintf("hier: phantom line %v in L3 with no Morph bound", la))
	}
	if ev.Dirty {
		h.hot.l3Writebacks.Inc()
		h.DRAM.WriteLine(la, &ev.Data) // timing tracked inside DRAM
	}
}

// fillTop installs a line into the core L1d, or the engine's for an
// engine fill (opts.EngineFill), merging any evicted dirty victim into
// the L2 (inclusion guarantees the L2 holds it, except for engine lines
// fetched around the L2, which write back to the shared level). Morphs
// never register at an L1d, so the line carries no Morph bit, and an
// unconstrained insert of such a line always finds a way.
func (h *Hierarchy) fillTop(tileID int, a mem.Addr, data *mem.Line, opts cache.FillOpts) {
	t := h.tiles[tileID]
	top := t.l1
	if opts.EngineFill {
		top = t.el1
	}
	// A racing access on this tile may have installed the line while
	// we slept at a lower level: update in place rather than creating
	// a duplicate. A dirty resident copy is newer than anything we
	// fetched — keep it.
	if ls := top.Lookup(a); ls != nil {
		if !ls.Dirty {
			ls.Data = *data
			ls.Dirty = opts.Dirty
		}
		return
	}
	opts.Morph = false
	tag, old, evicted, _ := top.Insert(a, data, opts, cache.VictimConstraint{})
	if !evicted {
		return
	}
	if old.Dirty {
		if ls2 := t.l2.Lookup(tag); ls2 != nil {
			ls2.Data = old.Data
			ls2.Dirty = true
		} else {
			// Engine line fetched around the L2 (shared-callback
			// path): write back to the shared level directly.
			h.writebackToShared(tileID, tag, old.Data)
		}
	} else {
		h.removeSharerIfNoCopies(tileID, tag)
	}
}
