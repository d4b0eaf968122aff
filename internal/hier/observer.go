package hier

import (
	"fmt"

	"tako/internal/mem"
)

// Observer receives program-visible memory operations at their commit
// points, plus coarse state-change notifications. The differential
// oracle (internal/oracle) implements it to cross-check every committed
// load against a flat reference memory model.
//
// Commit points are exact: each hook fires in the same kernel event as
// the functional state change it reports, so the order of hook
// invocations is the architectural commit order. Hooks must not call
// back into the hierarchy or block.
type Observer interface {
	// LoadCommitted reports a core load of the 8-byte word containing a
	// returning v.
	LoadCommitted(tile int, a mem.Addr, v uint64)
	// LineLoaded reports a core full-line load.
	LineLoaded(tile int, a mem.Addr, line *mem.Line)
	// StoreCommitted reports a core store of v to the word containing a.
	StoreCommitted(tile int, a mem.Addr, v uint64)
	// LineStored reports a core full-line store (nt marks non-temporal
	// stores that bypass private caches).
	LineStored(tile int, a mem.Addr, line *mem.Line, nt bool)
	// RMOCommitted reports a committed read-modify-write: the word
	// containing a went from old to result under op(old, operand).
	// Local atomics and remote memory operations both land here, in
	// commit order (async RMOs commit when they execute at the home
	// bank, not when issued).
	RMOCommitted(tile int, a mem.Addr, op RMOOp, operand, old, result uint64)
	// ExchangeCommitted reports an atomic exchange writing v and
	// returning old.
	ExchangeCommitted(tile int, a mem.Addr, v, old uint64)
	// EngineAccess reports a callback-issued memory access through a
	// tile engine's L1d (fills marked engine for trrîp accounting).
	EngineAccess(tile int, a mem.Addr, write bool)
	// Event reports that hierarchy state changed at the named site
	// (insert, eviction, upgrade, flush, ...). Observers use it to
	// schedule invariant checks between events.
	Event(site string)
}

// AttachObserver wires an observer into every commit path; nil detaches.
func (h *Hierarchy) AttachObserver(o Observer) { h.obs = o }

// event notes a hierarchy state change: it drives the Config-enabled
// self-check (SelfCheckEvery) and forwards to any attached observer.
func (h *Hierarchy) event(site string) {
	h.eventCount++
	if h.cfg.SelfCheckEvery > 0 && h.eventCount%uint64(h.cfg.SelfCheckEvery) == 0 {
		if err := h.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("hier: invariant violated after %s @%d: %v", site, h.K.Now(), err))
		}
	}
	if h.obs != nil {
		h.obs.Event(site)
	}
}
