package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/mem"
)

// CheckInvariants validates the hierarchy-wide correctness invariants
// that must hold between kernel events (functional state changes are
// atomic between sleeps, so every event() site is a consistent cut):
//
//   - per-cache replacement state is sane (no duplicate tags, RRPV in
//     range, line-aligned tags);
//   - every L2/L3 set retains a callback-free victim (trrîp deadlock
//     avoidance, §5.2);
//   - Morph and phantom tag bits refer to a live registration at the
//     matching level;
//   - directory entries are well-formed (owner is a sharer, sharer bits
//     within range);
//   - every directory-tracked line is resident in its home bank
//     (inclusion: a home fill keeps the line it installed until its
//     transaction is done, and a bank's eviction drops the line's
//     entry);
//   - every directory-tracked line cached in a private domain has its
//     sharer bit set;
//   - dirty copies exist in at most one private domain, and only in the
//     registered owner's;
//   - clean private copies match the home L3 data (freshness), unless
//     the same domain holds the dirty truth.
//
// It is driven automatically every Config.SelfCheckEvery events, by the
// oracle's Observer, and directly by property tests.
func (h *Hierarchy) CheckInvariants() error {
	for _, t := range h.tiles {
		for _, c := range []*cache.Cache{t.l1, t.el1, t.l2, t.l3} {
			if err := c.CheckReplacementState(); err != nil {
				return err
			}
		}
		for _, c := range []*cache.Cache{t.l2, t.l3} {
			if err := c.CheckMorphInvariant(); err != nil {
				return err
			}
		}
		if err := h.checkMorphBits(t); err != nil {
			return err
		}
	}
	return h.checkDirectory()
}

// checkMorphBits validates Morph/Phantom tag bits against the registry.
func (h *Hierarchy) checkMorphBits(t *tile) error {
	var err error
	check := func(c *cache.Cache, level Level) {
		c.Walk(func(la mem.Addr, l *cache.LineState) {
			if err != nil || (!l.Morph && !l.Phantom) {
				return
			}
			if h.registry == nil {
				err = fmt.Errorf("hier: %s line %v has Morph/Phantom bits with no registry",
					c.Config().Name, la)
				return
			}
			b, ok := h.registry.Binding(la)
			if !ok {
				err = fmt.Errorf("hier: %s line %v has Morph/Phantom bits with no live binding",
					c.Config().Name, la)
				return
			}
			if l.Phantom && !b.Phantom {
				err = fmt.Errorf("hier: %s line %v marked phantom but bound to real region %v",
					c.Config().Name, la, b.Region)
				return
			}
			// The Morph bit is set only at the registration level.
			if l.Morph && level != LevelNone && b.Level != level {
				err = fmt.Errorf("hier: %s line %v has Morph bit at %v but binding is %v",
					c.Config().Name, la, level, b.Level)
			}
		})
	}
	// L1s carry only the Phantom bit (level none); the Morph bit lives
	// at the registration level.
	check(t.l1, LevelNone)
	check(t.el1, LevelNone)
	check(t.l2, LevelPrivate)
	check(t.l3, LevelShared)
	return err
}

// checkDirectory validates directory entries against the home banks and
// the actual cache contents of every private domain, including the
// freshness of clean private copies against the home L3 data.
func (h *Hierarchy) checkDirectory() error {
	var dirErr error
	h.dir.forEach(func(la mem.Addr, e *dirEntry) bool {
		if e.sharers>>uint(h.cfg.Tiles) != 0 {
			dirErr = fmt.Errorf("hier: dir %v sharer mask %b has bits beyond %d tiles",
				la, e.sharers, h.cfg.Tiles)
			return false
		}
		if e.owner >= 0 && !e.has(e.owner) {
			dirErr = fmt.Errorf("hier: dir %v owner %d not in sharer mask %b", la, e.owner, e.sharers)
			return false
		}
		home := h.HomeTile(la)
		ls3 := h.tiles[home].l3.Lookup(la)
		if ls3 == nil {
			dirErr = fmt.Errorf("hier: dir-tracked line %v (%s) is not in its home bank %d\nhistory: %v",
				la, h.debugDir(la), home, h.DebugHomeHistory(la))
			return false
		}
		for tid, t := range h.tiles {
			domainDirty := false
			for _, c := range t.privateCaches() {
				if ls := c.Lookup(la); ls != nil && ls.Dirty {
					domainDirty = true
				}
			}
			for _, c := range t.privateCaches() {
				ls := c.Lookup(la)
				if ls == nil {
					continue
				}
				if !e.has(tid) {
					dirErr = fmt.Errorf("hier: tile %d caches dir-tracked line %v (%s) without a sharer bit (%s)",
						tid, la, c.Config().Name, h.debugDir(la))
					return false
				}
				if ls.Dirty && e.owner != tid {
					dirErr = fmt.Errorf("hier: tile %d holds dirty %v in %s but owner is %d\nhistory: %v",
						tid, la, c.Config().Name, e.owner, h.DebugHomeHistory(la))
					return false
				}
				// Freshness: a clean copy in a domain with no dirty
				// truth of its own must match home (debugcheck.go's
				// per-access assertion, applied globally).
				if !domainDirty && ls.Data != ls3.Data {
					dirErr = fmt.Errorf("hier: stale copy of %v in tile %d %s: local=%v home=%v\nhistory: %v",
						la, tid, c.Config().Name, ls.Data, ls3.Data, h.DebugHomeHistory(la))
					return false
				}
			}
		}
		return true
	})
	if dirErr != nil {
		return dirErr
	}
	// The inverse direction: every private copy of a coherence-tracked
	// line has a directory entry. Lines bound to a PRIVATE phantom Morph
	// are cache-only and deliberately untracked (§4.3).
	for tid, t := range h.tiles {
		for _, c := range t.privateCaches() {
			var err error
			c.Walk(func(la mem.Addr, _ *cache.LineState) {
				if err != nil {
					return
				}
				if h.registry != nil {
					if b, ok := h.registry.Binding(la); ok && b.Level == LevelPrivate && b.Phantom {
						return
					}
				}
				e := h.dir.get(la)
				if e == nil || !e.has(tid) {
					err = fmt.Errorf("hier: tile %d caches untracked line %v (%s), dir=%s",
						tid, la, c.Config().Name, h.debugDir(la))
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// DirSharers returns la's directory sharer mask and owner (-1 when
// unowned or untracked); exposed for verification harnesses.
func (h *Hierarchy) DirSharers(la mem.Addr) (sharers uint64, owner int) {
	e := h.dir.get(la)
	if e == nil {
		return 0, -1
	}
	return e.sharers, e.owner
}
