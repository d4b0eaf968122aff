package hier

import (
	"tako/internal/mem"
	"tako/internal/sim"
)

// RMOOp is a commutative reduction operator for remote memory
// operations. PHI supports any commutative update ("e.g., addition",
// §8.1); min/max enable label-propagation algorithms like connected
// components.
type RMOOp int

// Supported commutative operators.
const (
	RMOAdd RMOOp = iota
	RMOMin
	RMOMax
)

func (op RMOOp) apply(old, v uint64) uint64 {
	switch op {
	case RMOMin:
		if v < old {
			return v
		}
		return old
	case RMOMax:
		if v > old {
			return v
		}
		return old
	default:
		return old + v
	}
}

// AtomicAdd issues a relaxed remote memory operation (RMO, §8.1): a
// commutative add pushed to the shared level (or the SHARED Morph's
// lines), executing asynchronously off the core's critical path. The
// core only pays the issue cost; completion is tracked per tile and
// drained by DrainRMOs. Outstanding RMOs per tile are bounded by the
// RMOLimit semaphore — the issuing process blocks when it is exhausted.
func (h *Hierarchy) AtomicAdd(p *sim.Proc, tileID int, a mem.Addr, delta uint64) {
	h.AtomicRMO(p, tileID, a, RMOAdd, delta)
}

// AtomicRMO issues a relaxed remote memory operation with an arbitrary
// commutative operator. No thread waits on it, so its kindRMO
// transaction runs as kernel continuations, starting in this cycle where
// a spawned proc would have started; it ends in txn.complete, which
// frees its RMOLimit slot.
func (h *Hierarchy) AtomicRMO(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, v uint64) {
	t := h.tiles[tileID]
	t.rmo.Acquire(p) // backpressure: bounded in-flight RMOs
	t.rmoInflight.Add(1)
	h.hot.rmoIssued.Inc()
	h.K.After(0, h.newRMO(tileID, a, op, v).resume)
}

// AtomicAddSync performs a blocking remote add (used by baselines
// without RMO support to model an ordinary atomic over the shared
// level).
func (h *Hierarchy) AtomicAddSync(p *sim.Proc, tileID int, a mem.Addr, delta uint64) {
	h.hot.rmoIssued.Inc()
	h.runRMO(p, tileID, a, RMOAdd, delta)
}

// AtomicRMOSync is the blocking form of AtomicRMO.
func (h *Hierarchy) AtomicRMOSync(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, v uint64) {
	h.hot.rmoIssued.Inc()
	h.runRMO(p, tileID, a, op, v)
}

// runRMO executes the operation on p, blocking it until done.
func (h *Hierarchy) runRMO(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, delta uint64) {
	x := h.newRMO(tileID, a, op, delta)
	x.p = p
	x.run()
	h.putTxn(x)
}

// newRMO returns a kindRMO transaction that applies op at the home bank,
// not yet started. Misses on SHARED Morph lines trigger onMiss (phantom
// lines are materialized in-cache with no memory access — PHI's key
// property); plain lines are fetched from DRAM.
func (h *Hierarchy) newRMO(tileID int, a mem.Addr, op RMOOp, delta uint64) *txn {
	home := h.HomeTile(a)
	x := h.getTxn()
	x.kind = kindRMO
	x.tileID, x.a, x.la = tileID, a, a.Line()
	x.home, x.hm = home, h.tiles[home]
	x.op, x.val = op, delta
	return x
}

// DrainRMOs blocks until every RMO issued by tileID has completed (used
// before flushData so no update is lost, §8.1).
func (h *Hierarchy) DrainRMOs(p *sim.Proc, tileID int) {
	h.tiles[tileID].rmoInflight.Wait(p)
}
