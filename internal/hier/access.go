package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/mem"
	"tako/internal/sim"
)

// accessOpts parameterizes one memory access.
type accessOpts struct {
	write    bool
	engine   bool  // engine-issued: fills the engine L1d, trrîp demotion
	viaL2    bool  // engine access routed through the tile's L2 (private callbacks)
	cbLevel  Level // level of the issuing callback (engine accesses only)
	prefetch bool  // hardware prefetch: fills the L2 only
}

// Load performs a demand load of the 8-byte word containing a from
// tileID's core, returning its value. Must be called from a sim.Proc.
func (h *Hierarchy) Load(p *sim.Proc, tileID int, a mem.Addr) uint64 {
	if h.ffGate(p) {
		return h.ffLoad(p, tileID, a)
	}
	start := p.Now()
	ls := h.access(p, tileID, a, accessOpts{})
	return h.commitLoad(tileID, a, ls, start)
}

// LoadAsync issues a load of the 8-byte word containing a from tileID's
// core without blocking p: the value lands in *v, and f completes, when
// the load commits. No thread waits on it: its kindAccess transaction
// starts in this cycle and commits in txn.complete, as Load commits.
//
// While fast-forwarding, it applies the load at once, as every
// fast-forwarded access does.
func (h *Hierarchy) LoadAsync(p *sim.Proc, tileID int, a mem.Addr, v *uint64, f *sim.Future) {
	if h.ffGate(p) {
		*v = h.ffLoad(p, tileID, a)
		f.Complete()
		return
	}
	x := h.newAccess(tileID, a, accessOpts{})
	x.opStart, x.dst, x.done = h.K.Now(), v, f
	h.K.AfterTask(0, x)
}

// commitLoad ends a core load that began at start: it reads the word from
// ls, the line the load's access resolved to, and accounts its latency.
func (h *Hierarchy) commitLoad(tileID int, a mem.Addr, ls *cache.LineState, start sim.Cycle) uint64 {
	now := h.K.Now()
	v := ls.Data.U64(a.Offset() &^ 7)
	if h.obs != nil {
		h.obs.LoadCommitted(tileID, a, v)
	}
	lat := now - start
	h.LoadLat.Observe(float64(lat))
	h.hot.loadLat.Observe(lat)
	h.tracer.EmitSpan(start, now, h.comp.core[tileID], "load", "")
	return v
}

// Store writes the 8-byte word containing a from tileID's core.
func (h *Hierarchy) Store(p *sim.Proc, tileID int, a mem.Addr, v uint64) {
	if h.ffGate(p) {
		h.ffStore(p, tileID, a, v)
		return
	}
	ls := h.access(p, tileID, a, accessOpts{write: true})
	ls.Data.SetU64(a.Offset()&^7, v)
	ls.Dirty = true
	if h.obs != nil {
		h.obs.StoreCommitted(tileID, a, v)
	}
	h.event("store")
}

// LoadLine reads the full line containing a (a vector load).
func (h *Hierarchy) LoadLine(p *sim.Proc, tileID int, a mem.Addr) mem.Line {
	if h.ffGate(p) {
		return h.ffLoadLine(p, tileID, a)
	}
	ls := h.access(p, tileID, a, accessOpts{})
	if h.obs != nil {
		h.obs.LineLoaded(tileID, a, &ls.Data)
	}
	return ls.Data
}

// StoreLine writes the full line containing a (a vector store).
func (h *Hierarchy) StoreLine(p *sim.Proc, tileID int, a mem.Addr, line *mem.Line) {
	if h.ffGate(p) {
		h.ffStoreLine(p, tileID, a, line, false)
		return
	}
	ls := h.access(p, tileID, a, accessOpts{write: true})
	ls.Data = *line
	ls.Dirty = true
	if h.obs != nil {
		h.obs.LineStored(tileID, a, line, false)
	}
	h.event("storeline")
}

// StoreLineNT performs a non-temporal full-line store: the line is
// written directly to the shared level (or memory) without
// read-for-ownership or cache allocation, like MOVNTDQ streaming stores.
// Update-batching implementations stream their bins this way.
//
// The transaction takes the home-line lock before touching the
// directory: a fetch in flight under the lock may be about to install
// fresh sharers, and invalidating before it completes would let those
// copies survive the supersede and go stale.
func (h *Hierarchy) StoreLineNT(p *sim.Proc, tileID int, a mem.Addr, line *mem.Line) {
	if h.ffGate(p) {
		h.ffStoreLine(p, tileID, a, line, true)
		return
	}
	la := a.Line()
	home := h.HomeTile(la)
	x := h.getTxn()
	x.kind = kindNTStore
	x.tileID, x.a, x.la = tileID, a, la
	x.home, x.hm = home, h.tiles[home]
	x.data = *line
	h.await(p, x)
	h.putTxn(x)
}

// AtomicAddLocal performs a read-modify-write add in the local cache
// (acquiring exclusive ownership like an ordinary atomic fetch-add).
// Baselines without remote memory operations update shared data this
// way, paying coherence ping-pong under contention.
func (h *Hierarchy) AtomicAddLocal(p *sim.Proc, tileID int, a mem.Addr, delta uint64) {
	h.AtomicRMOLocal(p, tileID, a, RMOAdd, delta)
}

// AtomicRMOLocal performs a commutative read-modify-write with operator
// op in the local cache (ordinary atomic semantics: the line migrates).
func (h *Hierarchy) AtomicRMOLocal(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, v uint64) {
	if h.ffGate(p) {
		h.ffAtomicRMO(p, tileID, a, op, v)
		return
	}
	ls := h.access(p, tileID, a, accessOpts{write: true})
	off := a.Offset() &^ 7
	old := ls.Data.U64(off)
	ls.Data.SetU64(off, op.apply(old, v))
	ls.Dirty = true
	if h.obs != nil {
		h.obs.RMOCommitted(tileID, a, op, v, old, op.apply(old, v))
	}
	h.event("atomic.rmo")
}

// AtomicExchange swaps the word at a with v locally (LL/SC-style, §8.2),
// returning the previous value.
func (h *Hierarchy) AtomicExchange(p *sim.Proc, tileID int, a mem.Addr, v uint64) uint64 {
	if h.ffGate(p) {
		return h.ffAtomicExchange(p, tileID, a, v)
	}
	ls := h.access(p, tileID, a, accessOpts{write: true})
	off := a.Offset() &^ 7
	old := ls.Data.U64(off)
	ls.Data.SetU64(off, v)
	ls.Dirty = true
	if h.obs != nil {
		h.obs.ExchangeCommitted(tileID, a, v, old)
	}
	h.event("atomic.xchg")
	return old
}

// access is the private-domain access path: L1 → L2 → shared level. It
// returns the L1 (or engine-L1) line holding a, with write permission
// when requested. The returned pointer is valid until the next sleep.
//
// The access runs as a kindAccess transaction (txn.go); the lifecycle —
// translation, lock waits, probes, miss allocation, fetch, fill,
// post-install validation — is encoded in the txnLegal state machine
// rather than an inline retry loop.
func (h *Hierarchy) access(p *sim.Proc, tileID int, a mem.Addr, o accessOpts) *cache.LineState {
	x := h.newAccess(tileID, a, o)
	h.await(p, x)
	ls := x.result
	h.putTxn(x)
	return ls
}

// await runs x, a transaction p issued, and blocks p until x is done: p
// parks once, and the event in which x reaches Done resumes it (complete).
func (h *Hierarchy) await(p *sim.Proc, x *txn) {
	x.waiter = p
	x.run()
	p.Park()
}

// newAccess returns a kindAccess transaction for a, not yet started,
// after checking an engine access against täkō's callback restriction.
// Getting it before the translation stamps the attribution clocks at the
// pre-TLB start, so translation time lands in the Idle state and the
// access total matches Load's recorded latency window exactly (the
// conservation invariant).
func (h *Hierarchy) newAccess(tileID int, a mem.Addr, o accessOpts) *txn {
	h.checkEngineRestriction(tileID, a, o)
	t := h.tiles[tileID]
	x := h.getTxn()
	x.kind = kindAccess
	x.tileID, x.a, x.la, x.o = tileID, a, a.Line(), o
	x.t = t
	x.top = t.l1
	if o.engine {
		x.top = t.el1
	}
	x.track = h.attr != nil && !o.engine && !o.prefetch
	return x
}

// snoopSibling keeps the core and engine L1ds within a tile coherent: a
// write in one invalidates the other's copy (clustered coherence, §4.3).
func (h *Hierarchy) snoopSibling(tileID int, la mem.Addr, writerIsEngine bool) {
	t := h.tiles[tileID]
	sib := t.el1
	if writerIsEngine {
		sib = t.l1
	}
	if ls, ok := sib.ExtractLine(la); ok && ls.Dirty {
		if ls2 := t.l2.Lookup(la); ls2 != nil {
			ls2.Data = ls.Data
			ls2.Dirty = true
		}
	}
}

// checkEngineRestriction enforces täkō's callback restriction (§4.3):
// callbacks may not access data with a Morph registered at the same or
// a higher level of the hierarchy. Violations are programming errors and
// panic with a diagnostic.
func (h *Hierarchy) checkEngineRestriction(tileID int, a mem.Addr, o accessOpts) {
	if !o.engine || h.registry == nil {
		return
	}
	b, ok := h.registry.Binding(a)
	if !ok {
		return
	}
	if o.cbLevel == LevelShared || (o.cbLevel == LevelPrivate && b.Level == LevelPrivate) {
		panic(fmt.Sprintf(
			"täkō restriction violated (§4.3): %v-level callback on tile %d accessed %v, which has a Morph registered at %v",
			o.cbLevel, tileID, a, b.Level))
	}
}

// unlockHomeLine releases the home-line lock a transaction took in
// HomeLocked and wakes any queued waiters. Home-line locks are never superseded (every
// taker waits its turn), so a stale token here is a protocol bug and
// panics with the line, home tile, cycle, and both tokens.
func (h *Hierarchy) unlockHomeLine(la mem.Addr, tok uint64) {
	hm := h.tiles[h.HomeTile(la)]
	h.completeLock(hm.l3pending.mustUnlock(la, tok))
}

// dirAction performs the directory side of a fetch: invalidations for
// writes, dirty-owner downgrades for reads, with dirty data merged into
// ls3, the home line. Functional changes are immediate; the latency they
// cost is returned for the caller to sleep.
func (h *Hierarchy) dirAction(tileID int, la mem.Addr, o accessOpts, ls3 *cache.LineState) (extra sim.Cycle) {
	e := h.dirOf(la)
	if o.write {
		extra = h.grantOwnership(tileID, la, e, ls3)
	} else {
		if e.owner >= 0 && e.owner != tileID {
			if data, dirty := h.downgradeOwner(e.owner, la); dirty {
				h.applyDirtyMerge(ls3, la, data, "downgrade", e.owner)
			}
			h.hot.cohDowngrades.Inc()
			home := h.HomeTile(la)
			extra = h.Mesh.Transfer(home, e.owner, 8) + h.Mesh.Transfer(e.owner, home, mem.LineSize)
			e.owner = -1
		}
		e.add(tileID)
	}
	h.event("dirAction")
	return extra
}

// grantOwnership makes tileID the owner of la, whose directory entry is
// e and whose home line is ls3: it invalidates every other sharer's
// copy, merges a dirty one into ls3, and returns the slowest recall
// round trip. A write fetch's directory action and an upgrade both
// recall this way. (An upgrade never meets a dirty copy: a dirty copy
// implies its tile owns the line and is its sole sharer.)
func (h *Hierarchy) grantOwnership(tileID int, la mem.Addr, e *dirEntry, ls3 *cache.LineState) (lat sim.Cycle) {
	home := h.HomeTile(la)
	for s := 0; s < h.cfg.Tiles; s++ {
		if s == tileID || !e.has(s) {
			continue
		}
		if data, dirty, present := h.invalidatePrivate(s, la); present {
			h.hot.cohInvalidations.Inc()
			if dirty {
				h.applyDirtyMerge(ls3, la, data, "recall", s)
			}
			if rt := h.Mesh.Transfer(home, s, 8) + h.Mesh.Transfer(s, home, 8); rt > lat {
				lat = rt
			}
		}
		e.remove(s)
	}
	e.add(tileID)
	e.owner = tileID
	if h.cfg.FreshChecks {
		h.debugLogHome(la, fmt.Sprintf("grant(%d)", tileID), 0)
	}
	return lat
}

// applyDirtyMerge applies dirty data recovered from tile from's private
// copy of la to ls3, the home line, and logs it as site for the
// freshness checks.
func (h *Hierarchy) applyDirtyMerge(ls3 *cache.LineState, la mem.Addr, data mem.Line, site string, from int) {
	ls3.Data = data
	ls3.Dirty = true
	if h.cfg.FreshChecks {
		h.debugLogHome(la, fmt.Sprintf("%s-merge(from=%d)", site, from), data.U64(16))
	}
}

// completeLock wakes the waiters parked on a released line lock (nil when
// none materialized) and recycles the future: every lock future, lazily
// made or an eviction callback's, comes from the kernel's pool.
func (h *Hierarchy) completeLock(f *sim.Future) {
	if f == nil {
		return
	}
	f.Complete()
	h.K.RecycleFuture(f)
}
