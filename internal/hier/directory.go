package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/mem"
)

// dirEntry tracks which private domains (tiles) hold copies of a line.
// The directory lives logically alongside the inclusive L3 (home bank).
// A tile's "private domain" is its core L1d, engine L1d, and L2 together
// — the paper's clustered coherence, where the engine L1d snoops within
// the tile so the directory sees one sharer per tile (§4.3).
type dirEntry struct {
	sharers uint64 // bitmask of tiles holding copies
	owner   int    // tile holding the line exclusively/dirty; -1 if none
}

func (e *dirEntry) has(tile int) bool { return e.sharers&(1<<uint(tile)) != 0 }
func (e *dirEntry) add(tile int)      { e.sharers |= 1 << uint(tile) }
func (e *dirEntry) remove(tile int)   { e.sharers &^= 1 << uint(tile) }
func (e *dirEntry) empty() bool       { return e.sharers == 0 }

// dirOf returns (creating if needed) the directory entry for line la.
// The pointer follows dirTable's validity rule: use it before the next
// directory create or delete.
func (h *Hierarchy) dirOf(la mem.Addr) *dirEntry {
	return h.dir.getOrCreate(la)
}

// hasExclusive reports whether tile may write la without a coherence
// transaction: it is the registered owner, or the line is untracked
// (private phantom lines never enter the directory).
func (h *Hierarchy) hasExclusive(tileID int, la mem.Addr) bool {
	e := h.dir.get(la)
	if e == nil {
		return true
	}
	return e.owner == tileID
}

// privateCaches returns the caches forming tile t's private domain.
func (t *tile) privateCaches() [3]*cache.Cache {
	return [3]*cache.Cache{t.l1, t.el1, t.l2}
}

// holdsAny reports whether tile t's private domain caches any line of r.
func (t *tile) holdsAny(r mem.Region) bool {
	for _, c := range t.privateCaches() {
		if len(c.LinesInRegion(r)) > 0 {
			return true
		}
	}
	return false
}

// invalidatePrivate extracts every copy of la from tile's private domain,
// returning the newest data (dirty copies win) and whether any copy was
// dirty or present at all.
func (h *Hierarchy) invalidatePrivate(tileID int, la mem.Addr) (data mem.Line, dirty, present bool) {
	t := h.tiles[tileID]
	// privateCaches order is L1, engine L1, L2: the first dirty copy is
	// the newest (L1 writes supersede any stale dirty L2 copy).
	for _, c := range t.privateCaches() {
		if ls, ok := c.ExtractLine(la); ok {
			if ls.Dirty && !dirty {
				data, dirty = ls.Data, true
			} else if !dirty {
				data = ls.Data
			}
			present = true
		}
	}
	return data, dirty, present
}

// downgradeOwner clears dirty state on tile's copies of la (keeping them
// cached shared) and returns the newest data if any copy was dirty.
// Every remaining copy is refreshed to the newest data: dirtiness lives
// at the L1 while the L2 copy underneath goes stale, and once the dirty
// bit is gone that stale copy would otherwise masquerade as current.
func (h *Hierarchy) downgradeOwner(tileID int, la mem.Addr) (data mem.Line, dirty bool) {
	t := h.tiles[tileID]
	for _, c := range t.privateCaches() {
		if ls := c.Lookup(la); ls != nil && ls.Dirty {
			if !dirty { // first (highest) dirty copy is newest
				data, dirty = ls.Data, true
			}
		}
	}
	if dirty {
		for _, c := range t.privateCaches() {
			if ls := c.Lookup(la); ls != nil {
				ls.Data = data
				ls.Dirty = false
			}
		}
	}
	return data, dirty
}

// dirStillGrants reports whether la's directory entry still records
// tileID as a sharer — and as the owner, when write permission is
// required. Fetches re-validate this after any sleep between the home
// grant and the private-side install: a concurrent invalidation cannot
// see (or recall) a line that is in flight between caches.
func (h *Hierarchy) dirStillGrants(tileID int, la mem.Addr, write bool) bool {
	e := h.dir.get(la)
	if e == nil || !e.has(tileID) {
		return false
	}
	return !write || e.owner == tileID
}

// removeSharerIfNoCopies drops tile from la's sharer set once its private
// domain holds no copy, deleting empty entries.
func (h *Hierarchy) removeSharerIfNoCopies(tileID int, la mem.Addr) {
	t := h.tiles[tileID]
	e := h.dir.get(la)
	if e == nil {
		return
	}
	for _, c := range t.privateCaches() {
		if c.Contains(la) {
			return
		}
	}
	e.remove(tileID)
	if e.owner == tileID {
		e.owner = -1
	}
	empty := e.empty()
	if h.cfg.FreshChecks {
		h.debugLogHome(la, fmt.Sprintf("removeSharer(%d)", tileID), 0)
	}
	if empty {
		h.dir.delete(la)
	}
}

// DebugReadWord returns the architecturally newest value of the 8-byte
// word containing a, searching dirty private copies, then the L3, then
// memory. Intended for test verification after the system quiesces.
func (h *Hierarchy) DebugReadWord(a mem.Addr) uint64 {
	la := a.Line()
	off := a.Offset() &^ 7
	if e := h.dir.get(la); e != nil && e.owner >= 0 {
		t := h.tiles[e.owner]
		for _, c := range t.privateCaches() {
			if ls := c.Lookup(la); ls != nil && ls.Dirty {
				return ls.Data.U64(off)
			}
		}
	}
	// Private phantom lines live only in one tile's domain; scan.
	for _, t := range h.tiles {
		for _, c := range t.privateCaches() {
			if ls := c.Lookup(la); ls != nil && ls.Dirty {
				return ls.Data.U64(off)
			}
		}
	}
	hm := h.tiles[h.HomeTile(a)]
	if ls := hm.l3.Lookup(la); ls != nil {
		return ls.Data.U64(off)
	}
	for _, t := range h.tiles {
		for _, c := range t.privateCaches() {
			if ls := c.Lookup(la); ls != nil {
				return ls.Data.U64(off)
			}
		}
	}
	return h.DRAM.Store().ReadU64(la + mem.Addr(off))
}
