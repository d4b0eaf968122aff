package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

// txn is one coherence transaction: a private-domain access, a home-bank
// fetch, a remote memory operation, a non-temporal store, or an
// ownership upgrade. All transaction state that used to live
// implicitly in locals, futures, and lock tokens spread across the
// access path is explicit here, and advance() is the only place state
// changes — each call performs the current state's action and moves to a
// txnLegal-checked successor.
//
// A transaction runs as a chain of kernel continuations: it is a
// sim.Task. Each step ends in at most one wait (sleep, wait, acquire or
// a nested transaction), which parks it: the wait queues the
// transaction itself where a proc waiting instead would have its wake
// queued, and run returns; the event that ends the wait resumes it, and
// the loop goes on. A step that waits more than once splits into
// phases, and a wait that ends a state names the state that follows it
// (after). The thread a transaction serves (a core thread, or Morph
// software the engine entered) issued it and blocks on it once, in
// await; the event in which it reaches Done resumes that thread in place
// (complete), and while the thread is blocked, each step that is the
// next due event runs on the thread itself, as sim runs a blocked
// proc's own events. Prefetches, asynchronous RMOs and asynchronous
// core loads have no thread waiting.
//
// Transactions are pooled on the Hierarchy (getTxn/putTxn) so the
// per-access hot path stays allocation-free; a private access that
// misses drives a nested home-fetch transaction, so the pool routinely
// holds one object per concurrently-running proc plus one.
type txn struct {
	h     *Hierarchy
	kind  txnKind
	state txnState

	phase  uint8    // position within the current state's step
	after  txnState // the state to move to once the current wait ends; Idle: none
	parked bool     // waiting for the event that resumes it
	// waiter is what the transaction resumes when it is done: the
	// transaction it is nested in (a home fetch or an upgrade runs for
	// another), the proc that awaits it, or nil when no thread waits on
	// it.
	waiter sim.Task

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
	meta       cache.FillOpts
	viaHome    bool
	cb         Binding // the line's Morph binding, held from Fetch or HomeFetch to the callback
	fetchStart sim.Cycle

	// The onMiss callback's futures (Runner.Run), recycled when it ends.
	cbAccepted, cbDone *sim.Future

	// An asynchronous core load's word destination and the future its
	// commit completes.
	dst  *uint64
	done *sim.Future

	// result is the line a successful access resolves to (valid at Done
	// for kindAccess; nil for prefetches whose fill was evicted).
	result    *cache.LineState
	resultSet bool

	// Home-side state.
	home      int
	hm        *tile
	homeTok   uint64
	ls3       *cache.LineState
	tracing   bool
	spanKind  string
	homeStart sim.Cycle
	maxLat    sim.Cycle // upgrade: slowest recall round-trip

	// data is the transaction's line buffer: the fetched line, or an NT
	// store's line, copied in at issue. The line is threaded through
	// interface calls (DRAM reads, the Morph runner, the observer), and a
	// pooled txn keeps it, and the caller's copy, from escaping to the
	// heap. putTxn zeroes the whole object, so the buffer starts as a
	// zero line.
	data mem.Line

	// RMO operands.
	op  RMOOp
	val uint64

	// Latency-attribution clocks (attr.go), meaningful only while
	// Hierarchy.attr is armed: opStart is the transaction's (for
	// accesses, the pre-TLB) start; stateEnter is when the current
	// state was entered. track marks demand accesses whose per-state
	// timeline (tl) feeds the slowest-access ring. An asynchronous core
	// load's commit measures its latency from opStart, which LoadAsync
	// stamps whether or not attribution is armed.
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
	t.h = h
	if h.attr != nil {
		t.stamp(h.K.Now())
	}
	return t
}

// putTxn zeroes and recycles a finished transaction. The timeline
// slice's capacity survives the reset, so armed attribution stops
// allocating once the pool is warm. The pool is uncapped: it holds at
// most as many as were ever in flight at once.
func (h *Hierarchy) putTxn(t *txn) {
	tl := t.tl[:0]
	*t = txn{}
	t.tl = tl
	h.txnPool = append(h.txnPool, t)
}

// to moves the machine to next, asserting the edge against txnLegal and
// recording it in the coverage table. An illegal edge is a state-machine
// bug (or an interleaving no one modeled): panic with full context
// rather than continue with corrupt coherence state.
func (t *txn) to(next txnState) {
	if txnLegal[t.kind][t.state]&(1<<next) == 0 {
		panic(fmt.Sprintf(
			"hier: illegal %v transaction transition %v -> %v (tile %d, line %v, cycle %d)",
			t.kind, t.state, next, t.tileID, t.la, t.h.K.Now()))
	}
	t.h.txnCounts[t.kind][t.state][next]++
	if a := t.h.attr; a != nil {
		t.observeDwell(a, t.h.K.Now())
	}
	t.state, t.phase = next, 0
}

// run drives the transaction until it is done or parks. This loop plus
// advance() is the whole control flow of the access path; there is no
// other driver.
func (t *txn) run() {
	for t.state != txnDone {
		t.advance()
		if t.parked {
			return
		}
	}
	if a := t.h.attr; a != nil {
		t.finishAttr(a)
	}
	t.complete()
}

// Resume is the event that ends a parked transaction's wait: it carries
// on from the step after it.
func (t *txn) Resume() {
	t.parked = false
	t.run()
}

// Issuer is the proc blocked until the transaction is done, through its
// waiter; nil when no thread waits on it.
func (t *txn) Issuer() *sim.Proc {
	if t.waiter == nil {
		return nil
	}
	return t.waiter.Issuer()
}

// complete ends a transaction in the event in which it reached Done. A
// nested transaction resumes its parent there, unless it finished within
// nest, which then carries on itself; an awaited one resumes its proc,
// which recycles it. Hardware no thread waits on frees its resources;
// an asynchronous core load commits, as Load commits.
// Nothing touches t after the resume.
func (t *txn) complete() {
	switch w := t.waiter.(type) {
	case *txn:
		if w.parked {
			w.unnest(t)
			w.Resume()
		}
	case nil:
		h := t.h
		tl := h.tiles[t.tileID]
		switch {
		case t.kind == kindRMO:
			h.putTxn(t)
			tl.rmo.Release()
			tl.rmoInflight.Done()
		case t.o.prefetch:
			h.putTxn(t)
			tl.prefetchInflight--
		default: // an asynchronous core load: commit, then complete the issuer's future
			f := t.done
			*t.dst = h.commitLoad(t.tileID, t.a, t.result, t.opStart)
			h.putTxn(t)
			f.Complete()
		}
	default:
		w.Resume()
	}
}

// sleep ends the step in a d-cycle wait.
func (t *txn) sleep(d sim.Cycle) {
	t.parked = true
	t.h.K.AfterTask(d, t)
}

// wait ends the step in a wait for f, which may be complete already.
func (t *txn) wait(f *sim.Future) {
	if !f.Done() {
		t.parked = true
		f.Then(t)
	}
}

// acquire ends the step in taking a slot of s.
func (t *txn) acquire(s *sim.Semaphore) {
	if !s.AcquireThen(t) {
		t.parked = true
	}
}

// sleepTo ends the state in a d-cycle wait, then moves to next.
func (t *txn) sleepTo(d sim.Cycle, next txnState) {
	t.after = next
	t.sleep(d)
}

// waitTo ends the state in a wait for f, then moves to next.
func (t *txn) waitTo(f *sim.Future, next txnState) {
	t.after = next
	t.wait(f)
}

// retryIfLocked ends the state in a wait for the tile's pending lock on
// the line, when one is held, and retries from Lookup after it,
// reporting whether it did.
func (t *txn) retryIfLocked() bool {
	f := t.t.pending.waitOn(t.la)
	if f == nil {
		return false
	}
	t.waitTo(f, txnLookup)
	return true
}

// nest ends the step in running c, a home fetch or an upgrade on t's
// behalf; t carries on when c is done, in the same event.
func (t *txn) nest(c *txn) {
	c.waiter = t
	c.run()
	if c.state == txnDone {
		t.unnest(c)
	} else {
		t.parked = true // c resumes t when done (complete)
	}
}

// unnest takes a finished nested transaction's result and recycles it.
func (t *txn) unnest(c *txn) {
	if c.kind == kindHomeFetch {
		t.data = c.data
	}
	t.h.putTxn(c)
}

// advance is the single transition function: it executes the current
// state's action and selects the successor. Kind-specific behavior
// (what "DirAction" means for a fetch vs. an RMO vs. an NT store) is
// dispatched inside the state's step, so the lifecycle shape stays
// readable in one place. A state whose last wait named its successor
// moves there first.
func (t *txn) advance() {
	if next := t.after; next != txnIdle {
		t.after = txnIdle
		t.to(next)
		return
	}
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

// stepStart routes Idle to each kind's entry state. An access first
// translates: a core access (a demand access or a prefetch) through the
// tile's dTLB, an engine access through its rTLB.
func (t *txn) stepStart() {
	switch t.kind {
	case kindAccess:
		if t.phase == 0 {
			t.phase = 1
			tlb := t.t.dtlb
			if t.o.engine {
				tlb = t.t.rtlb
			}
			if lat, hit := tlb.Lookup(t.a); !hit {
				t.sleep(lat)
				return
			}
		}
		t.h.Meter.Add(energy.TLBAccess, 1)
		t.to(txnLookup)
	default:
		t.to(txnHomeLocked)
	}
}

// ---- private side (kindAccess) ----

// stepLookup waits out pending-line locks on the requesting tile; it is
// the universal retry target.
func (t *txn) stepLookup() {
	// Respect callback locks and in-flight fills on this line.
	if t.retryIfLocked() {
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
	h := t.h
	if t.phase == 0 {
		h.Meter.Add(energy.L1Access, 1)
		t.phase = 1
		t.sleep(h.cfg.L1Latency)
		return
	}
	if t.retryIfLocked() { // lock raced in during sleep
		return
	}
	topHits, topMisses := h.hot.top(t.o.engine)
	if ls := t.top.Lookup(t.a); ls != nil {
		h.debugCheckFresh(t.tileID, t.la, "l1-hit")
		if t.o.write && !h.hasExclusive(t.tileID, t.la) {
			t.after = txnLookup
			t.upgrade()
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
	h := t.h
	sib := t.t.el1
	if t.o.engine {
		sib = t.t.l1
	}
	if t.phase == 0 {
		h.hot.snoopMigrations.Inc()
		h.Meter.Add(energy.L1Access, 1)
		t.phase = 1
		t.sleep(h.cfg.L1Latency)
		return
	}
	// Extract only after the latency sleep: a line held in a local
	// variable across a sleep is invisible to concurrent invalidations
	// and downgrades, and re-installing it would resurrect dirty data
	// they could not see. If the copy vanished during the sleep, the
	// retry refetches it.
	if ls, ok := sib.ExtractLine(t.la); ok {
		h.fillTop(t.tileID, t.a, &ls.Data, cache.FillOpts{Dirty: ls.Dirty, Phantom: ls.Phantom, EngineFill: t.o.engine})
	}
	// Retry from the top: the hit path applies write permission checks
	// and replacement updates.
	t.to(txnLookup)
}

// stepL2Probe probes the tile's private L2. All accesses probe it
// (engines are clustered with it, §4.3); only core accesses and
// private-callback engine accesses allocate there on a miss. Phase 0
// charges the tag array, 1 probes it, and 2 follows a hit's data-array
// access.
func (t *txn) stepL2Probe() {
	h := t.h
	switch t.phase {
	case 0:
		h.Meter.Add(energy.L2Access, 1)
		t.phase = 1
		t.sleep(h.cfg.L2TagLat)
		return
	case 1:
		if t.retryIfLocked() {
			return
		}
		if t.t.l2.Lookup(t.a) == nil {
			h.hot.l2Misses.Inc()
			if !t.o.engine {
				h.notifyPrefetcher(t.tileID, t.a)
			}
			t.to(txnMissAlloc)
			return
		}
		h.debugCheckFresh(t.tileID, t.la, "l2-hit")
		if t.o.write && !h.hasExclusive(t.tileID, t.la) {
			t.after = txnLookup
			t.upgrade()
			return
		}
		t.phase = 2
		t.sleep(h.cfg.L2DataLat)
		return
	}
	t.t.l2.Touch(t.a)
	h.hot.l2Hits.Inc()
	ls2 := t.t.l2.Lookup(t.a)
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
	h.fillTop(t.tileID, t.a, &ls2.Data, cache.FillOpts{Phantom: ls2.Phantom, EngineFill: t.o.engine})
	t.to(txnCommit) // Commit re-probes the L1 and retries if the fill vanished
}

// stepMissAlloc allocates an MSHR (core accesses only; engines have
// dedicated slots so callbacks can always make progress, §5.2) and takes
// the pending-line lock for the fetch. Phase 1 holds the MSHR.
func (t *txn) stepMissAlloc() {
	if t.phase == 0 {
		if t.retryIfLocked() {
			return
		}
		t.usedMSHR = !t.o.engine && !t.o.prefetch
		if t.usedMSHR {
			t.phase = 1
			t.acquire(t.t.mshr)
			return
		}
	} else if t.t.pending.locked(t.la) {
		// A lock raced in while we queued for the MSHR.
		t.t.mshr.Release()
		t.usedMSHR = false
		t.retryIfLocked()
		return
	}
	t.lockTok = t.t.pending.lock(t.la)
	t.haveLock = true
	t.fetchStart = t.h.K.Now()
	t.to(txnFetch)
}

// stepFetch obtains the line for the private domain: either via a
// PRIVATE Morph's onMiss (phantom lines never touch the levels below,
// §4.3) or by driving a home-side fetch transaction. Phase 1 follows a
// PRIVATE Morph's line, phase 2 a plain one.
func (t *txn) stepFetch() {
	h := t.h
	switch t.phase {
	case 0:
		if h.registry != nil {
			if b, ok := h.registry.Binding(t.a); ok && b.Level == LevelPrivate {
				t.cb, t.phase = b, 1
				if !b.Phantom {
					// Real-address Morph: read backing data (the paper
					// overlaps this with the callback; we serialize, see
					// DESIGN.md).
					t.fetchHome()
				}
				return
			}
		}
		t.phase = 2
		t.fetchHome()
	case 1:
		t.meta = cache.FillOpts{Dirty: t.o.write, Morph: true, Phantom: t.cb.Phantom}
		if t.cb.HasMiss && h.runner != nil {
			t.to(txnCbPending)
			return
		}
		t.to(txnFill)
	default:
		t.meta = cache.FillOpts{Dirty: t.o.write}
		t.to(txnFill)
	}
}

// stepCbPending runs the Morph onMiss callback that owns the line
// buffer, waiting for the engine to finish. A private access runs the
// callback on the requesting tile; home-side transactions run it on the
// home tile (RMOs without a per-callback trace span, as before). Phase
// 1 follows the callback's end: the runner's futures are the
// transaction's to recycle.
func (t *txn) stepCbPending() {
	h := t.h
	if t.phase == 1 {
		h.K.RecycleFuture(t.cbAccepted)
		h.K.RecycleFuture(t.cbDone)
		t.cbAccepted, t.cbDone = nil, nil
		if t.kind == kindAccess {
			t.to(txnFill)
		} else {
			t.to(txnHomeFill)
		}
		return
	}
	h.hot.cb[CbMiss].Inc()
	tile := t.home
	switch t.kind {
	case kindAccess:
		tile = t.tileID
		if h.tracer != nil {
			h.emit(h.comp.l2[t.tileID], "cb.onMiss", t.la.String())
		}
	case kindHomeFetch:
		if h.tracer != nil {
			h.emit(h.comp.l3[t.home], "cb.onMiss", t.la.String())
		}
	}
	t.cbAccepted, t.cbDone = h.runner.Run(tile, CbMiss, t.cb, t.la, &t.data)
	t.phase = 1
	t.wait(t.cbDone)
}

// stepFill installs the fetched line into the private caches. Phase 1
// is the install attempt, retried a cycle later while the L2 set has no
// way the line may replace.
func (t *txn) stepFill() {
	h := t.h
	if t.phase == 0 {
		if h.tracer != nil {
			h.tracer.EmitSpan(t.fetchStart, h.K.Now(), h.comp.l2[t.tileID], "l2.miss", t.la.String())
		}
		t.meta.EngineFill = t.o.engine
		// Everything except private phantom lines went through the home
		// directory, which registered us as a sharer (and owner, for
		// writes) during the fetch.
		t.viaHome = !(t.meta.Morph && t.meta.Phantom)
		t.phase = 1
	}
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
		l2 := t.meta
		l2.Dirty = false
		if t.stillGranted() {
			if !h.insertL2(t.tileID, t.a, &t.data, l2) {
				t.sleep(1)
				return
			}
			if !t.o.prefetch {
				h.fillTop(t.tileID, t.a, &t.data, t.meta)
			}
		}
	} else if !t.o.prefetch && t.stillGranted() {
		h.fillTop(t.tileID, t.a, &t.data, t.meta)
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

// fetchHome ends the step in a home-side fetch of the line into t.data:
// a nested kindHomeFetch transaction (request to the home bank, L3
// lookup with a SHARED Morph's onMiss or a DRAM fill on a miss,
// directory action, and the data response).
func (t *txn) fetchHome() {
	h := t.h
	x := h.getTxn()
	x.kind = kindHomeFetch
	x.tileID, x.a, x.la, x.o = t.tileID, t.a, t.la, t.o
	x.home = h.HomeTile(t.a)
	x.hm = h.tiles[x.home]
	x.homeStart, x.spanKind = h.K.Now(), "l3.hit"
	x.tracing = h.tracer != nil
	t.nest(x)
}

// upgrade ends the step in obtaining write permission for the line: if
// other tiles hold copies, they are invalidated through the home
// directory. It runs as a nested kindUpgrade transaction, serialized
// through the home-line lock: a concurrent fetch may have copied data
// that is still in flight, and its copy must be visible for invalidation
// before ownership changes hands.
func (t *txn) upgrade() {
	h := t.h
	x := h.getTxn()
	x.kind = kindUpgrade
	x.tileID, x.a, x.la = t.tileID, t.la, t.la
	x.home = h.HomeTile(t.la)
	x.hm = h.tiles[x.home]
	t.nest(x)
}

// ---- home side (kindHomeFetch, kindRMO, kindNTStore, kindUpgrade) ----

// stepHomeLocked charges the request transfer (fetch and RMO kinds) and
// acquires the home-bank line lock, serializing with every home-side
// operation on the line (fetches, RMOs, upgrades, NT stores). Phase 1
// waits out the lock's holders.
func (t *txn) stepHomeLocked() {
	h := t.h
	if t.phase == 0 {
		t.phase = 1
		switch t.kind {
		case kindHomeFetch:
			t.sleep(h.Mesh.Transfer(t.tileID, t.home, 8))
			return
		case kindRMO:
			t.sleep(h.Mesh.Transfer(t.tileID, t.home, 16)) // address + operand
			return
		}
	}
	if f := t.hm.l3pending.waitOn(t.la); f != nil {
		t.wait(f)
		return
	}
	t.homeTok = t.hm.l3pending.lock(t.la)
	switch t.kind {
	case kindNTStore, kindUpgrade:
		t.to(txnDirAction)
	default:
		t.to(txnHomeProbe)
	}
}

// stepHomeProbe probes the home L3 bank under the lock, which also keeps
// a concurrent insert from victimizing a hit mid-access (insertL3's Busy
// constraint). Phase 1 follows the tag array, phase 2 a hit's data
// array.
func (t *txn) stepHomeProbe() {
	h := t.h
	switch t.phase {
	case 0:
		h.Meter.Add(energy.L3Access, 1)
		t.phase = 1
		t.sleep(h.cfg.L3TagLat)
	case 1:
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
		t.phase = 2
		t.sleep(h.cfg.L3DataLat)
	default:
		t.hm.l3.Touch(t.a)
		t.to(txnDirAction)
	}
}

// stepHomeFetch materializes the line on a home miss: a SHARED Morph's
// onMiss (phantom lines never reach DRAM), or a DRAM read. Phase 1
// follows a SHARED Morph's line.
func (t *txn) stepHomeFetch() {
	h := t.h
	if t.phase == 1 {
		t.meta.Morph, t.meta.Phantom = true, t.cb.Phantom
		if t.kind == kindHomeFetch {
			// Morph lines are demand-bound even when a prefetch
			// materialized them: insert at normal priority (only true
			// engine-port fills demote).
			t.meta.EngineFill = t.o.engine
		}
		if t.cb.HasMiss && h.runner != nil {
			t.to(txnCbPending)
			return
		}
		t.to(txnHomeFill)
		return
	}
	if t.kind == kindHomeFetch {
		// Engine fills and prefetched lines insert at distant
		// re-reference priority in the shared cache (trrîp, §5.2):
		// streamed-once data should not displace reused lines.
		t.meta = cache.FillOpts{EngineFill: t.o.engine || t.o.prefetch}
	} else {
		t.meta = cache.FillOpts{}
	}
	if h.registry != nil {
		if b, ok := h.registry.Binding(t.a); ok && b.Level == LevelShared {
			t.cb, t.phase = b, 1
			if !b.Phantom {
				t.wait(h.DRAM.ReadLine(t.la, &t.data))
			}
			return
		}
	}
	t.waitTo(h.DRAM.ReadLine(t.la, &t.data), txnHomeFill)
}

// stepHomeFill installs the fetched line into the home bank, retrying a
// cycle later while every candidate way is busy. The installed line stays
// until the transaction ends: the victim's eviction touches only private
// caches, the directory, lock tables and DRAM, and the home-line lock,
// held throughout, keeps later inserts from victimizing the line
// (insertL3's Busy constraint) and other writers from racing its data.
func (t *txn) stepHomeFill() {
	if !t.h.insertL3(t.home, t.a, &t.data, t.meta) {
		t.sleep(1)
		return
	}
	t.ls3 = t.hm.l3.Lookup(t.a)
	t.to(txnDirAction)
}

// stepDirAction performs the directory side of the transaction under
// the home lock. What that means is kind-specific — invalidations and
// downgrades for a fetch, dropping every copy for an RMO, superseding
// for an NT store, recall-and-grant for an upgrade — but it is the only
// state in which sharer sets and ownership change.
func (t *txn) stepDirAction() {
	h := t.h
	switch t.kind {
	case kindHomeFetch:
		if extra := h.dirAction(t.tileID, t.la, t.o, t.ls3); extra > 0 {
			t.sleepTo(extra, txnRespond)
			return
		}
		t.to(txnRespond)

	case kindRMO:
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
	t.maxLat = h.grantOwnership(t.tileID, t.la, e, t.hm.l3.Lookup(t.la))
	h.debugCheckFresh(t.tileID, t.la, "upgrade")
	h.event("upgrade")
	t.to(txnRespond)
}

// stepRespond charges the response latency back to the requester, still
// under the home lock. For a fetch, releasing the lock before the data
// lands would let another requester modify the line while our (now
// stale) copy is in flight, losing its update when we install the copy.
// A fetch's phase 1 follows the transfer.
func (t *txn) stepRespond() {
	h := t.h
	switch t.kind {
	case kindHomeFetch:
		if t.phase == 0 {
			t.data = t.ls3.Data
			t.phase = 1
			t.sleep(h.Mesh.Transfer(t.home, t.tileID, mem.LineSize))
			return
		}
		t.to(txnUnlock)
	case kindNTStore:
		t.sleepTo(h.Mesh.Transfer(t.tileID, t.home, mem.LineSize), txnUnlock)
	case kindUpgrade:
		t.sleepTo(h.Mesh.Latency(t.tileID, t.home, 8)+t.maxLat+h.Mesh.Latency(t.home, t.tileID, 8), txnUnlock)
	}
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
			ls3.Data = t.data
			ls3.Dirty = true
			h.Meter.Add(energy.L3Access, 1)
		} else {
			h.DRAM.WriteLine(t.la, &t.data) // bypasses the cache entirely
		}
		if h.obs != nil {
			h.obs.LineStored(t.tileID, t.a, &t.data, true)
		}
		h.event("nt.store")
		h.hot.ntStores.Inc()
		t.to(txnRespond)
	}
}

// stepUnlock releases the home-bank line lock, waking queued waiters,
// and closes out the home-side trace span.
func (t *txn) stepUnlock() {
	h := t.h
	h.unlockHomeLine(t.la, t.homeTok)
	if t.tracing {
		// One span per home-bank service on the bank's track: request
		// arrival through data response (covers queueing on the home
		// line, DRAM fills, and SHARED callbacks).
		h.tracer.EmitSpan(t.homeStart, h.K.Now(), h.comp.l3[t.home], t.spanKind, t.la.String())
	}
	t.to(txnDone)
}
