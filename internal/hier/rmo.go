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
// commutative operator. No thread waits on it: its kindRMO transaction
// starts in this cycle, where a spawned proc would have started, and
// ends in txn.complete, which frees its RMOLimit slot.
//
// While fast-forwarding, it applies the operation to the backing store at
// once, as every fast-forwarded access does.
func (h *Hierarchy) AtomicRMO(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, v uint64) {
	if h.ffGate(p) {
		h.ffAtomicRMO(p, tileID, a, op, v)
		return
	}
	t := h.tiles[tileID]
	t.rmo.Acquire(p) // backpressure: bounded in-flight RMOs
	t.rmoInflight.Add(1)
	h.hot.rmoIssued.Inc()
	h.K.AfterTask(0, h.newRMO(tileID, a, op, v))
}

// AtomicAddSync performs a blocking remote add (used by baselines
// without RMO support to model an ordinary atomic over the shared
// level).
func (h *Hierarchy) AtomicAddSync(p *sim.Proc, tileID int, a mem.Addr, delta uint64) {
	if h.ffGate(p) {
		h.ffAtomicRMO(p, tileID, a, RMOAdd, delta)
		return
	}
	h.hot.rmoIssued.Inc()
	x := h.newRMO(tileID, a, RMOAdd, delta)
	h.await(p, x)
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
