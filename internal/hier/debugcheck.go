package hier

import (
	"fmt"

	"tako/internal/mem"
)

// Freshness checking state lives on the Hierarchy (not in package
// globals) so parallel tests and coexisting hierarchies cannot
// cross-contaminate each other's histories or toggles. Enable it per
// hierarchy with Config.FreshChecks, or for every machine with
// system.Options.Verify.

func (h *Hierarchy) debugDir(la mem.Addr) string {
	e := h.dir.get(la)
	if e == nil {
		return "dir{}"
	}
	return fmt.Sprintf("dir{sharers=%b owner=%d}", e.sharers, e.owner)
}

// debugLogHome records the last few mutations of each home line.
func (h *Hierarchy) debugLogHome(la mem.Addr, site string, w0 uint64) {
	if !h.cfg.FreshChecks {
		return
	}
	l := append(h.homeLog[la], fmt.Sprintf("%s@%d w2=%d %s", site, h.K.Now(), w0, h.debugDir(la)))
	if len(l) > 16 {
		l = l[len(l)-16:]
	}
	h.homeLog[la] = l
}

// debugCheckFresh panics if tileID holds a clean copy of la that differs
// from the home L3 copy — a coherence bug. Enabled by tests.
func (h *Hierarchy) debugCheckFresh(tileID int, la mem.Addr, where string) {
	if !h.cfg.FreshChecks {
		return
	}
	hm := h.tiles[h.HomeTile(la)]
	ls3 := hm.l3.Lookup(la)
	if ls3 == nil {
		return
	}
	t := h.tiles[tileID]
	// A dirty copy anywhere in the tile makes it the owner: its clean
	// copies may legitimately be ahead of home (the dirty truth is in
	// the same private domain and merges on eviction/downgrade).
	for _, c := range t.privateCaches() {
		if ls := c.Lookup(la); ls != nil && ls.Dirty {
			return
		}
	}
	for _, c := range t.privateCaches() {
		if ls := c.Lookup(la); ls != nil && ls.Data != ls3.Data {
			panic(fmt.Sprintf("STALE at %s: tile %d cache %v line %v local=%v home=%v\nhistory: %v",
				where, tileID, c.Config().Name, la, ls.Data, ls3.Data, h.homeLog[la]))
		}
	}
}

// DebugHomeHistory returns the recorded mutation history of a home line
// (populated only while fresh checks are enabled).
func (h *Hierarchy) DebugHomeHistory(la mem.Addr) []string { return h.homeLog[la] }
