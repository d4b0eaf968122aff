package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

// txn is one coherence transaction: a private-domain access, a home-bank
// fetch, a remote memory operation, a non-temporal store, an ownership
// upgrade, or a flush eviction. All transaction state that used to live
// implicitly in locals, futures, and lock tokens spread across the
// access path is explicit here, and advance() is the only place state
// changes — each call performs the current state's action and moves to a
// txnLegal-checked successor.
//
// Transactions are pooled on the Hierarchy (getTxn/putTxn) so the
// per-access hot path stays allocation-free; a private access that
// misses drives a nested home-fetch transaction, so the pool routinely
// holds one object per concurrently-running proc plus one.
type txn struct {
	h     *Hierarchy
	p     *sim.Proc
	kind  txnKind
	state txnState

	tileID int
	a      mem.Addr
	la     mem.Addr
	o      accessOpts

	t   *tile        // requesting tile (private-side kinds)
	top *cache.Cache // core or engine L1d, per o.engine

	// Private-side miss bookkeeping.
	usedMSHR   bool
	haveLock   bool
	lockTok    uint64
	meta       fillMeta
	viaHome    bool
	cb         Binding // binding whose onMiss owns the buffer in CbPending
	fetchStart sim.Cycle

	// result is the line a successful access resolves to (valid at Done
	// for kindAccess; nil for prefetches whose fill was evicted).
	result    *cache.LineState
	resultSet bool

	// Home-side state.
	home      int
	hm        *tile
	homeTok   uint64
	ls3       *cache.LineState
	bypass    bool // home fill immediately victimized: serve without caching
	tracing   bool
	spanKind  string
	homeStart sim.Cycle
	maxLat    sim.Cycle // upgrade: slowest recall round-trip

	// data is the transaction's line buffer. It replaces the pooled
	// fill buffers of the old access path: the line is threaded through
	// interface calls (DRAM reads, the Morph runner), and a pooled txn
	// keeps it from escaping to the heap on every miss. putTxn zeroes
	// the whole object, so the buffer starts with `var line mem.Line`
	// semantics exactly like the old pool.
	data mem.Line

	// RMO operands.
	op  RMOOp
	val uint64

	// NT-store input line (caller-owned).
	ext *mem.Line

	// Flush-eviction bookkeeping.
	flushBank bool // walk an L3 bank instead of the private L2
	futs      *[]*sim.Future
	evicted   bool // the flush txn extracted (and processed) its line

	// Latency-attribution clocks (attr.go), meaningful only while
	// Hierarchy.attr is armed: opStart is the transaction's (or, for
	// demand accesses, the pre-TLB) start; stateEnter is when the
	// current state was entered. track marks demand accesses whose
	// per-state timeline (tl) feeds the slowest-access ring.
	opStart    sim.Cycle
	stateEnter sim.Cycle
	track      bool
	tl         []tlSeg
	tlTrunc    bool
}

// getTxn returns a zeroed transaction from the hierarchy's pool.
func (h *Hierarchy) getTxn() *txn {
	var t *txn
	if n := len(h.txnPool); n > 0 {
		t = h.txnPool[n-1]
		h.txnPool[n-1] = nil
		h.txnPool = h.txnPool[:n-1]
	} else {
		t = &txn{}
	}
	if h.attr != nil {
		t.stamp(h.K.Now())
	}
	return t
}

// putTxn zeroes and recycles a finished transaction. The timeline
// slice's capacity survives the reset so armed attribution stops
// allocating once the pool is warm.
func (h *Hierarchy) putTxn(t *txn) {
	tl := t.tl[:0]
	*t = txn{}
	t.tl = tl
	if len(h.txnPool) < 64 {
		h.txnPool = append(h.txnPool, t)
	}
}

// to moves the machine to next, asserting the edge against txnLegal and
// recording it in the coverage table. An illegal edge is a state-machine
// bug (or an interleaving no one modeled): panic with full context
// rather than continue with corrupt coherence state.
func (t *txn) to(next txnState) {
	if txnLegal[t.kind][t.state]&(1<<next) == 0 {
		panic(fmt.Sprintf(
			"hier: illegal %v transaction transition %v -> %v (tile %d, line %v, cycle %d)",
			t.kind, t.state, next, t.tileID, t.la, t.p.Now()))
	}
	t.h.txnCounts[t.kind][t.state][next]++
	if a := t.h.attr; a != nil {
		t.observeDwell(a, t.p.Now())
	}
	t.state = next
}

// run drives the transaction to completion. This loop plus advance() is
// the whole control flow of the access path; there is no other driver.
func (t *txn) run() {
	for t.state != txnDone {
		t.advance()
	}
	if a := t.h.attr; a != nil {
		t.finishAttr(a)
	}
}

// advance is the single transition function: it executes the current
// state's action and selects the successor. Kind-specific behavior
// (what "DirAction" means for a fetch vs. an RMO vs. an NT store) is
// dispatched inside the state's step, so the lifecycle shape stays
// readable in one place.
func (t *txn) advance() {
	switch t.state {
	case txnIdle:
		t.stepStart()
	case txnLookup:
		t.stepLookup()
	case txnL1Probe:
		t.stepL1Probe()
	case txnSibSnoop:
		t.stepSibSnoop()
	case txnL2Probe:
		t.stepL2Probe()
	case txnMissAlloc:
		t.stepMissAlloc()
	case txnFetch:
		t.stepFetch()
	case txnCbPending:
		t.stepCbPending()
	case txnFill:
		t.stepFill()
	case txnValidate:
		t.stepValidate()
	case txnHomeLocked:
		t.stepHomeLocked()
	case txnHomeProbe:
		t.stepHomeProbe()
	case txnHomeFetch:
		t.stepHomeFetch()
	case txnHomeFill:
		t.stepHomeFill()
	case txnDirAction:
		t.stepDirAction()
	case txnRespond:
		t.stepRespond()
	case txnCommit:
		t.stepCommit()
	case txnUnlock:
		t.stepUnlock()
	default:
		panic(fmt.Sprintf("hier: %v transaction advanced in state %v", t.kind, t.state))
	}
}

// stepStart routes Idle to each kind's entry state.
func (t *txn) stepStart() {
	switch t.kind {
	case kindAccess, kindFlushEvict:
		t.to(txnLookup)
	default:
		t.to(txnHomeLocked)
	}
}

// ---- private side (kindAccess, kindFlushEvict) ----

// stepLookup waits out pending-line locks on the requesting tile; it is
// the universal retry target. A flush eviction does not wait repeatedly:
// a locked line is skipped this pass and retried by the flush walk.
func (t *txn) stepLookup() {
	if t.kind == kindFlushEvict {
		var lt *lockTable
		if t.flushBank {
			lt = &t.hm.l3pending
		} else {
			lt = &t.t.pending
		}
		if lt.waitIfLocked(t.p, t.la) {
			t.to(txnDone) // the line was locked; the flush walk retries later
			return
		}
		t.to(txnCommit)
		return
	}
	// Respect callback locks and in-flight fills on this line.
	if t.t.pending.waitIfLocked(t.p, t.la) {
		t.to(txnLookup)
		return
	}
	if t.o.prefetch {
		t.to(txnL2Probe) // prefetches fill the L2 only; no L1 probe
		return
	}
	t.to(txnL1Probe)
}

// stepL1Probe is the top-level (core or engine L1d) probe.
func (t *txn) stepL1Probe() {
	h, p := t.h, t.p
	topHits, topMisses := h.hot.top(t.o.engine)
	h.Meter.Add(energy.L1Access, 1)
	p.Sleep(h.cfg.L1Latency)
	if t.t.pending.waitIfLocked(p, t.la) { // lock raced in during sleep
		t.to(txnLookup)
		return
	}
	if ls := t.top.Lookup(t.a); ls != nil {
		h.debugCheckFresh(t.tileID, t.la, "l1-hit")
		if t.o.write && !h.hasExclusive(t.tileID, t.la) {
			h.upgrade(p, t.tileID, t.la)
			t.to(txnLookup)
			return
		}
		t.top.Touch(t.a)
		topHits.Inc()
		if t.o.write {
			h.snoopSibling(t.tileID, t.la, t.o.engine)
		}
		t.result, t.resultSet = ls, true
		t.to(txnCommit)
		return
	}
	topMisses.Inc()
	// Clustered coherence (§4.3): the core and engine L1ds snoop within
	// the tile. A miss in one that hits in the other migrates the line
	// (with its dirty state) instead of fetching stale data from the
	// shared level — the directory tracks the tile as one domain, so
	// the home copy may be behind this tile's own sibling L1.
	sib := t.t.el1
	if t.o.engine {
		sib = t.t.l1
	}
	if sib.Contains(t.la) {
		t.to(txnSibSnoop)
		return
	}
	t.to(txnL2Probe)
}

// stepSibSnoop migrates the line from the tile's sibling L1d.
func (t *txn) stepSibSnoop() {
	h, p := t.h, t.p
	sib := t.t.el1
	if t.o.engine {
		sib = t.t.l1
	}
	h.hot.snoopMigrations.Inc()
	h.Meter.Add(energy.L1Access, 1)
	p.Sleep(h.cfg.L1Latency)
	// Extract only after the latency sleep: a line held in a local
	// variable across a sleep is invisible to concurrent invalidations
	// and downgrades, and re-installing it would resurrect dirty data
	// they could not see. If the copy vanished during the sleep, the
	// retry refetches it.
	if ls, ok := sib.ExtractLine(t.la); ok {
		meta := fillMeta{phantom: ls.Phantom, dirty: ls.Dirty, engine: t.o.engine}
		h.fillTop(t.tileID, t.a, &ls.Data, meta, t.o.engine)
	}
	// Retry from the top: the hit path applies write permission checks
	// and replacement updates.
	t.to(txnLookup)
}

// stepL2Probe probes the tile's private L2. All accesses probe it
// (engines are clustered with it, §4.3); only core accesses and
// private-callback engine accesses allocate there on a miss.
func (t *txn) stepL2Probe() {
	h, p := t.h, t.p
	h.Meter.Add(energy.L2Access, 1)
	p.Sleep(h.cfg.L2TagLat)
	if t.t.pending.waitIfLocked(p, t.la) {
		t.to(txnLookup)
		return
	}
	if ls2 := t.t.l2.Lookup(t.a); ls2 != nil {
		h.debugCheckFresh(t.tileID, t.la, "l2-hit")
		if t.o.write && !h.hasExclusive(t.tileID, t.la) {
			h.upgrade(p, t.tileID, t.la)
			t.to(txnLookup)
			return
		}
		p.Sleep(h.cfg.L2DataLat)
		t.t.l2.Touch(t.a)
		h.hot.l2Hits.Inc()
		ls2 = t.t.l2.Lookup(t.a)
		if ls2 == nil {
			t.to(txnLookup) // evicted during the data-array sleep
			return
		}
		if t.o.write && !h.hasExclusive(t.tileID, t.la) {
			// Ownership was revoked during the data-array sleep (a
			// concurrent read downgraded us): dirtying the line now
			// would skip the invalidation of the new sharers. Retry,
			// which re-upgrades.
			t.to(txnLookup)
			return
		}
		if t.o.prefetch {
			t.result, t.resultSet = ls2, true
			t.to(txnCommit)
			return
		}
		meta := fillMeta{phantom: ls2.Phantom, dirty: false, engine: t.o.engine}
		h.fillTop(t.tileID, t.a, &ls2.Data, meta, t.o.engine)
		t.to(txnCommit) // Commit re-probes the L1 and retries if the fill vanished
		return
	}
	h.hot.l2Misses.Inc()
	if !t.o.engine {
		h.notifyPrefetcher(p, t.tileID, t.a)
	}
	t.to(txnMissAlloc)
}

// stepMissAlloc allocates an MSHR (core accesses only; engines have
// dedicated slots so callbacks can always make progress, §5.2) and takes
// the pending-line lock for the fetch.
func (t *txn) stepMissAlloc() {
	p := t.p
	if t.t.pending.waitIfLocked(p, t.la) {
		t.to(txnLookup)
		return
	}
	t.usedMSHR = !t.o.engine && !t.o.prefetch
	if t.usedMSHR {
		t.t.mshr.Acquire(p)
		if t.t.pending.locked(t.la) {
			t.t.mshr.Release()
			t.usedMSHR = false
			t.t.pending.waitIfLocked(p, t.la)
			t.to(txnLookup)
			return
		}
	}
	t.lockTok = t.t.pending.lock(t.la)
	t.haveLock = true
	t.fetchStart = p.Now()
	t.to(txnFetch)
}

// stepFetch obtains the line for the private domain: either via a
// PRIVATE Morph's onMiss (phantom lines never touch the levels below,
// §4.3) or by driving a home-side fetch transaction.
func (t *txn) stepFetch() {
	h := t.h
	if h.registry != nil {
		if b, ok := h.registry.Binding(t.a); ok && b.Level == LevelPrivate {
			if !b.Phantom {
				// Real-address Morph: read backing data (the paper
				// overlaps this with the callback; we serialize, see
				// DESIGN.md).
				h.fetchFromHome(t.p, t.tileID, t.a, t.o, &t.data)
			}
			t.meta = fillMeta{morph: true, phantom: b.Phantom, dirty: t.o.write}
			if b.HasMiss && h.runner != nil {
				t.cb = b
				t.to(txnCbPending)
				return
			}
			t.to(txnFill)
			return
		}
	}
	h.fetchFromHome(t.p, t.tileID, t.a, t.o, &t.data)
	t.meta = fillMeta{dirty: t.o.write}
	t.to(txnFill)
}

// stepCbPending runs the Morph onMiss callback that owns the line
// buffer, waiting for the engine to finish. A private access runs the
// callback on the requesting tile; home-side transactions run it on the
// home tile (RMOs without a per-callback trace span, as before).
func (t *txn) stepCbPending() {
	h, p := t.h, t.p
	h.hot.cb[CbMiss].Inc()
	switch t.kind {
	case kindAccess:
		if h.tracer != nil {
			h.emit(h.comp.l2[t.tileID], "cb.onMiss", t.la.String())
		}
		_, done := h.runner.Run(t.tileID, CbMiss, t.cb, t.la, &t.data)
		p.Wait(done)
		t.to(txnFill)
	case kindHomeFetch:
		if h.tracer != nil {
			h.emit(h.comp.l3[t.home], "cb.onMiss", t.la.String())
		}
		_, done := h.runner.Run(t.home, CbMiss, t.cb, t.la, &t.data)
		p.Wait(done)
		t.to(txnHomeFill)
	default: // kindRMO
		_, done := h.runner.Run(t.home, CbMiss, t.cb, t.la, &t.data)
		p.Wait(done)
		t.to(txnHomeFill)
	}
}

// stepFill installs the fetched line into the private caches.
func (t *txn) stepFill() {
	h, p := t.h, t.p
	if h.tracer != nil {
		h.tracer.EmitSpan(t.fetchStart, p.Now(), h.comp.l2[t.tileID], "l2.miss", t.la.String())
	}
	t.meta.engine = t.o.engine
	// Everything except private phantom lines went through the home
	// directory, which registered us as a sharer (and owner, for
	// writes) during the fetch.
	t.viaHome = !(t.meta.morph && t.meta.phantom)
	// The grant is re-checked in the same synchronous continuation as
	// each install attempt: the fetched line is invisible to concurrent
	// invalidations while in flight, so a grant revoked during any sleep
	// since the home response (transfer, insertL2 retry) means t.data is
	// stale. Checking after the last sleep with no event boundary before
	// the install means a stale copy is never made visible — not even to
	// the invariant checker, which runs from the insert's own event.
	if allocL2 := !t.o.engine || t.o.viaL2; allocL2 {
		// The L2 copy stays clean: dirtiness is tracked at the writing
		// L1 and merged down on eviction, so a stale L2 copy can never
		// masquerade as the newest data.
		l2meta := t.meta
		l2meta.dirty = false
		for t.stillGranted() {
			if h.insertL2(t.tileID, t.a, &t.data, l2meta) {
				if !t.o.prefetch {
					topMeta := t.meta
					topMeta.morph = false
					h.fillTop(t.tileID, t.a, &t.data, topMeta, t.o.engine)
				}
				break
			}
			p.Sleep(1)
		}
	} else if !t.o.prefetch && t.stillGranted() {
		topMeta := t.meta
		topMeta.morph = false
		h.fillTop(t.tileID, t.a, &t.data, topMeta, t.o.engine)
	}
	t.to(txnValidate)
}

// stillGranted reports whether the directory still grants this tile the
// line fetched via the home (private phantom fills never touch the
// directory and are always granted).
func (t *txn) stillGranted() bool {
	return !t.viaHome || t.h.dirStillGrants(t.tileID, t.la, t.o.write)
}

// stepValidate bails out of a fetch whose directory grant was revoked
// while the line was in flight (a concurrent RMO, NT store, back-inval,
// or downgrade could not see it): nothing was installed, so release the
// pending lock and MSHR and retry the whole access. The extracts are
// defensive no-ops on this path.
func (t *txn) stepValidate() {
	h := t.h
	if t.viaHome && !h.dirStillGrants(t.tileID, t.la, t.o.write) {
		t.top.ExtractLine(t.la)
		t.t.l2.ExtractLine(t.la)
		h.removeSharerIfNoCopies(t.tileID, t.la)
		lockFut := t.t.pending.unlock(t.la, t.lockTok)
		t.haveLock = false
		if t.usedMSHR {
			t.t.mshr.Release()
			t.usedMSHR = false
		}
		h.completeLock(lockFut)
		t.to(txnLookup)
		return
	}
	t.to(txnCommit)
}

// ---- home side (kindHomeFetch, kindRMO, kindNTStore, kindUpgrade) ----

// stepHomeLocked charges the request transfer (fetch and RMO kinds) and
// acquires the home-bank line lock.
func (t *txn) stepHomeLocked() {
	h, p := t.h, t.p
	switch t.kind {
	case kindHomeFetch:
		p.Sleep(h.Mesh.Transfer(t.tileID, t.home, 8))
	case kindRMO:
		p.Sleep(h.Mesh.Transfer(t.tileID, t.home, 16)) // address + operand
	}
	t.homeTok = h.lockHomeLine(p, t.la)
	switch t.kind {
	case kindNTStore, kindUpgrade:
		t.to(txnDirAction)
	default:
		t.to(txnHomeProbe)
	}
}

// stepHomeProbe probes the home L3 bank under the lock. On a hit the
// line is locked before the data-array sleep so a concurrent insert
// cannot victimize it mid-access.
func (t *txn) stepHomeProbe() {
	h, p := t.h, t.p
	h.Meter.Add(energy.L3Access, 1)
	p.Sleep(h.cfg.L3TagLat)
	t.ls3 = t.hm.l3.Lookup(t.a)
	if t.ls3 == nil {
		if t.kind == kindRMO {
			h.hot.rmoMisses.Inc()
		} else {
			h.hot.l3Misses.Inc()
			t.spanKind = "l3.miss"
		}
		t.to(txnHomeFetch)
		return
	}
	if t.kind == kindRMO {
		h.hot.rmoHits.Inc()
	} else {
		h.hot.l3Hits.Inc()
	}
	t.ls3.Locked = true
	p.Sleep(h.cfg.L3DataLat)
	t.hm.l3.Touch(t.a)
	t.to(txnDirAction)
}

// stepHomeFetch materializes the line on a home miss: a SHARED Morph's
// onMiss (phantom lines never reach DRAM), or a DRAM read.
func (t *txn) stepHomeFetch() {
	h, p := t.h, t.p
	if t.kind == kindHomeFetch {
		// Engine fills and prefetched lines insert at distant
		// re-reference priority in the shared cache (trrîp, §5.2):
		// streamed-once data should not displace reused lines.
		t.meta = fillMeta{engine: t.o.engine || t.o.prefetch}
	} else {
		t.meta = fillMeta{}
	}
	if h.registry != nil {
		if b, ok := h.registry.Binding(t.a); ok && b.Level == LevelShared {
			if !b.Phantom {
				h.DRAM.ReadLineWait(p, t.la, &t.data)
			}
			t.meta.morph, t.meta.phantom = true, b.Phantom
			if t.kind == kindHomeFetch {
				// Morph lines are demand-bound even when a prefetch
				// materialized them: insert at normal priority (only
				// true engine-port fills demote).
				t.meta.engine = t.o.engine
			}
			if b.HasMiss && h.runner != nil {
				t.cb = b
				t.to(txnCbPending)
				return
			}
			t.to(txnHomeFill)
			return
		}
	}
	h.DRAM.ReadLineWait(p, t.la, &t.data)
	t.to(txnHomeFill)
}

// stepHomeFill installs the fetched line into the home bank. If the
// fill is immediately victimized under extreme pressure, the line is
// served (or updated) without caching — the bypass flag routes the
// directory action and commit around the missing L3 copy. The home line
// stays locked throughout so no other writer can race the in-flight
// data.
func (t *txn) stepHomeFill() {
	h, p := t.h, t.p
	for !h.insertL3(t.home, t.a, &t.data, t.meta) {
		p.Sleep(1)
	}
	t.ls3 = t.hm.l3.Lookup(t.a)
	if t.ls3 == nil {
		t.bypass = true
	}
	t.to(txnDirAction)
}

// stepDirAction performs the directory side of the transaction under
// the home lock. What that means is kind-specific — invalidations and
// downgrades for a fetch, dropping every copy for an RMO, superseding
// for an NT store, recall-and-grant for an upgrade — but it is the only
// state in which sharer sets and ownership change.
func (t *txn) stepDirAction() {
	h, p := t.h, t.p
	switch t.kind {
	case kindHomeFetch:
		if t.bypass {
			if merged := h.dirAction(p, t.tileID, t.la, t.o, nil); merged != nil {
				t.data = *merged
			}
		} else {
			t.ls3.Locked = true
			h.dirAction(p, t.tileID, t.la, t.o, t.ls3)
		}
		t.to(txnRespond)

	case kindRMO:
		if t.bypass {
			// Fill immediately victimized under extreme pressure:
			// invalidate any private copies (merging dirty data); the
			// commit applies the update straight to memory.
			if e := h.dir.get(t.la); e != nil {
				for s := 0; s < h.cfg.Tiles; s++ {
					if e.has(s) {
						if data, dirty, _ := h.invalidatePrivate(s, t.la); dirty {
							t.data = data
						}
						e.remove(s)
					}
				}
				h.dir.delete(t.la)
			}
			t.to(txnCommit)
			return
		}
		t.ls3.Locked = true
		// Invalidate stale private copies so the home copy is
		// authoritative.
		if e := h.dir.get(t.la); e != nil {
			for s := 0; s < h.cfg.Tiles; s++ {
				if e.has(s) {
					if data, dirty, present := h.invalidatePrivate(s, t.la); present {
						h.hot.cohInvalidations.Inc()
						if dirty {
							t.ls3.Data = data
						}
						h.Mesh.Transfer(t.home, s, 8)
					}
					e.remove(s)
				}
			}
			e.owner = -1
			h.dir.delete(t.la)
		}
		t.to(txnCommit)

	case kindNTStore:
		// A full-line store supersedes all cached copies.
		if e := h.dir.get(t.la); e != nil {
			for s := 0; s < h.cfg.Tiles; s++ {
				if e.has(s) {
					h.invalidatePrivate(s, t.la)
					e.remove(s)
				}
			}
			h.dir.delete(t.la)
		}
		t.to(txnCommit)

	case kindUpgrade:
		t.stepUpgradeDir()
	}
}

// stepUpgradeDir is kindUpgrade's directory action: recall every other
// private copy through the home directory and grant ownership. Fast
// paths (untracked line, already owner, sole-sharer silent upgrade) skip
// the recall latency and go straight to Unlock.
func (t *txn) stepUpgradeDir() {
	h := t.h
	e := h.dir.get(t.la)
	if e == nil || e.owner == t.tileID {
		t.to(txnUnlock)
		return
	}
	if e.sharers == 1<<uint(t.tileID) {
		e.owner = t.tileID // sole sharer: silent upgrade
		h.debugCheckFresh(t.tileID, t.la, "silent-upgrade")
		t.to(txnUnlock)
		return
	}
	h.hot.cohUpgrades.Inc()
	for s := 0; s < h.cfg.Tiles; s++ {
		if s == t.tileID || !e.has(s) {
			continue
		}
		data, dirty, present := h.invalidatePrivate(s, t.la)
		if !present {
			e.remove(s)
			continue
		}
		h.hot.cohInvalidations.Inc()
		if dirty {
			if ls3 := t.hm.l3.Lookup(t.la); ls3 != nil {
				ls3.Data = data
				ls3.Dirty = true
				if h.cfg.FreshChecks {
					h.debugLogHome(t.la, fmt.Sprintf("upgrade-merge(from=%d)", s), data.U64(16))
				}
			}
		}
		lat := h.Mesh.Transfer(t.home, s, 8) + h.Mesh.Transfer(s, t.home, 8)
		if lat > t.maxLat {
			t.maxLat = lat
		}
		e.remove(s)
	}
	e.add(t.tileID)
	e.owner = t.tileID
	if h.cfg.FreshChecks {
		h.debugLogHome(t.la, fmt.Sprintf("upgrade-grant(%d)", t.tileID), 0)
	}
	h.debugCheckFresh(t.tileID, t.la, "upgrade")
	h.event("upgrade")
	t.to(txnRespond)
}

// stepRespond charges the response latency back to the requester, still
// under the home lock. For a fetch, releasing the lock before the data
// lands would let another requester modify the line while our (now
// stale) copy is in flight, losing its update when we install the copy.
func (t *txn) stepRespond() {
	h, p := t.h, t.p
	switch t.kind {
	case kindHomeFetch:
		if !t.bypass {
			t.data = t.ls3.Data
		}
		p.Sleep(h.Mesh.Transfer(t.home, t.tileID, mem.LineSize))
		if !t.bypass {
			t.ls3.Locked = false
		}
	case kindNTStore:
		p.Sleep(h.Mesh.Transfer(t.tileID, t.home, mem.LineSize))
	case kindUpgrade:
		p.Sleep(h.Mesh.Latency(t.tileID, t.home, 8) + t.maxLat + h.Mesh.Latency(t.home, t.tileID, 8))
	}
	t.to(txnUnlock)
}

// stepCommit applies the transaction's architectural effect and, on the
// private side, finalizes the result (releasing the miss resources).
func (t *txn) stepCommit() {
	h := t.h
	switch t.kind {
	case kindAccess:
		if t.haveLock {
			lockFut := t.t.pending.unlock(t.la, t.lockTok)
			t.haveLock = false
			if t.usedMSHR {
				t.t.mshr.Release()
				t.usedMSHR = false
			}
			h.completeLock(lockFut)
			if t.o.prefetch {
				t.result, t.resultSet = t.t.l2.Lookup(t.a), true
				t.to(txnDone)
				return
			}
		}
		if t.resultSet {
			t.to(txnDone)
			return
		}
		if ls := t.top.Lookup(t.a); ls != nil {
			if t.o.write {
				h.snoopSibling(t.tileID, t.la, t.o.engine)
			}
			t.result, t.resultSet = ls, true
			t.to(txnDone)
			return
		}
		// Extremely rare: our fill was evicted before we committed.
		t.to(txnLookup)

	case kindRMO:
		off := t.a.Offset() &^ 7
		if t.bypass {
			old := t.data.U64(off)
			t.data.SetU64(off, t.op.apply(old, t.val))
			h.DRAM.WriteLineNoWait(t.la, &t.data)
			if h.obs != nil {
				h.obs.RMOCommitted(t.tileID, t.a, t.op, t.val, old, t.op.apply(old, t.val))
			}
			h.event("rmo.bypass")
			t.to(txnUnlock)
			return
		}
		old := t.ls3.Data.U64(off)
		t.ls3.Data.SetU64(off, t.op.apply(old, t.val))
		t.ls3.Dirty = true
		if h.cfg.FreshChecks {
			h.debugLogHome(t.la, fmt.Sprintf("rmo-commit(from=%d)", t.tileID), t.ls3.Data.U64(16))
		}
		if h.obs != nil {
			h.obs.RMOCommitted(t.tileID, t.a, t.op, t.val, old, t.op.apply(old, t.val))
		}
		h.event("rmo.commit")
		t.to(txnUnlock)

	case kindNTStore:
		if ls3 := t.hm.l3.Lookup(t.la); ls3 != nil {
			ls3.Data = *t.ext
			ls3.Dirty = true
			h.Meter.Add(energy.L3Access, 1)
		} else {
			h.DRAM.WriteLineNoWait(t.la, t.ext) // bypasses the cache entirely
		}
		if h.obs != nil {
			h.obs.LineStored(t.tileID, t.a, t.ext, true)
		}
		h.event("nt.store")
		h.hot.ntStores.Inc()
		t.to(txnRespond)

	case kindFlushEvict:
		var c *cache.Cache
		if t.flushBank {
			c = t.hm.l3
		} else {
			c = t.t.l2
		}
		ls, ok := c.ExtractLine(t.la)
		if !ok {
			t.to(txnDone)
			return
		}
		t.evicted = true
		h.hot.flushLines.Inc()
		if t.flushBank {
			h.handleL3Eviction(t.home, ls, t.futs)
		} else {
			h.handleL2Eviction(t.tileID, ls, t.futs)
		}
		t.to(txnDone)
	}
}

// stepUnlock releases the home-bank line lock, waking queued waiters,
// and closes out the home-side trace span.
func (t *txn) stepUnlock() {
	h, p := t.h, t.p
	if t.kind == kindRMO && !t.bypass {
		t.ls3.Locked = false
	}
	h.unlockHomeLine(t.la, t.homeTok)
	if t.tracing {
		// One span per home-bank service on the bank's track: request
		// arrival through data response (covers queueing on the home
		// line, DRAM fills, and SHARED callbacks).
		h.tracer.EmitSpan(t.homeStart, p.Now(), h.comp.l3[t.home], t.spanKind, t.la.String())
	}
	t.to(txnDone)
}
