package hier

import (
	"sort"

	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/stats"
)

// This file is the transaction-level latency attribution layer: when
// armed (Config.Attribution), every txn.to transition observes the
// cycles the machine dwelt in the state it is leaving, so each txn kind
// accumulates a per-state cycle decomposition — how much of a 400-cycle
// load was lock queueing vs. directory probe vs. DRAM. The histograms
// are ordinary registry entries (txn.state.cycles{kind,state} and
// txn.total.cycles{kind}), so they ride the existing snapshot/report
// plumbing; a bounded ring additionally keeps the K slowest demand
// accesses with their full state timeline for takosim -slowest.
//
// Everything here is nil-gated on Hierarchy.attr: a disarmed hierarchy
// pays one pointer check in to() and getTxn() and allocates nothing,
// preserving the ≤0.01 allocs/access gate (bench_test.go).

// Attribution conservation invariant: for one transaction, the per-state
// dwell observations sum exactly to its txn.total.cycles observation —
// both windows span first stamp (getTxn; an access gets its txn before
// its dTLB step, which runs in Idle) to the final transition into Done,
// and run() observes the total in the same cycle as that transition. Summed per kind over a
// run, Σ_state Sum(txn.state.cycles{kind,state}) == Sum(txn.total.
// cycles{kind}); for a pure demand-load workload the kind=access total
// additionally equals the load.latency sum (attr_test.go locks both in).

// maxTimelineSegs caps one tracked access's recorded timeline; a
// pathological lock-retry storm would otherwise grow it without bound.
// Dwell accounting is unaffected — only the per-segment record truncates.
const maxTimelineSegs = 128

// tlSeg is one internal timeline segment: the state and how long the
// transaction dwelt in it before the transition out.
type tlSeg struct {
	st     txnState
	cycles uint64
}

// SlowSegment is one rendered state-timeline segment of a SlowAccess.
type SlowSegment struct {
	State  string `json:"state"`
	Cycles uint64 `json:"cycles"`
}

// SlowAccess is one of the K slowest demand accesses of a run, with its
// full (possibly truncated) state timeline in transition order.
type SlowAccess struct {
	Tile      int           `json:"tile"`
	Addr      string        `json:"addr"`
	Write     bool          `json:"write,omitempty"`
	Start     uint64        `json:"start_cycle"`
	Latency   uint64        `json:"latency"`
	Timeline  []SlowSegment `json:"timeline"`
	Truncated bool          `json:"truncated,omitempty"`
}

// slowEntry is the ring's internal record; the timeline is kept in the
// compact internal form and rendered on demand.
type slowEntry struct {
	tile      int
	la        mem.Addr
	write     bool
	start     sim.Cycle
	lat       uint64
	tl        []tlSeg
	truncated bool
}

// slowRing is the top-K ring of slow accesses, sorted ascending by
// latency so the cheapest survivor is always slow[0]. K == 0 keeps none.
type slowRing struct {
	k    int
	slow []slowEntry
}

// txnAttr is the armed attribution state of one hierarchy: pre-resolved
// dwell/total histogram handles (nil for states a kind can never leave,
// so a bogus observation would fault loudly in tests) and the slow
// ring.
type txnAttr struct {
	dwell [nTxnKinds][nTxnStates]*stats.Histogram
	total [nTxnKinds]*stats.Histogram

	ring slowRing
}

// txnSpanNames pre-renders the per-state trace span kinds so armed
// tracing formats nothing per transition.
var txnSpanNames = func() [nTxnStates]string {
	var n [nTxnStates]string
	for i := range n {
		n[i] = "txn." + txnStateNames[i]
	}
	return n
}()

// newTxnAttr registers the attribution histograms. Only (kind, state)
// pairs with at least one outgoing legal edge get a dwell histogram:
// dwell is observed when leaving a state, so states a kind never leaves
// (or never enters) would only bloat every snapshot with dead entries.
func newTxnAttr(r *stats.Registry, slowestK int) *txnAttr {
	a := &txnAttr{ring: slowRing{k: slowestK}}
	if a.ring.k > 0 {
		a.ring.slow = make([]slowEntry, 0, a.ring.k)
	}
	for k := 0; k < nTxnKinds; k++ {
		kl := stats.L("kind", txnKindNames[k])
		a.total[k] = r.Histogram("txn.total.cycles", kl)
		for s := 0; s < nTxnStates; s++ {
			if txnLegal[k][s] == 0 {
				continue
			}
			a.dwell[k][s] = r.Histogram("txn.state.cycles", kl, stats.L("state", txnStateNames[s]))
		}
	}
	return a
}

// stamp seeds a fresh transaction's attribution clocks. An access is
// stamped before its dTLB step, so translation time lands in the Idle
// state and the access total matches the recorded load latency.
func (t *txn) stamp(now sim.Cycle) {
	t.opStart, t.stateEnter = now, now
}

// observeDwell records the dwell time of the state being left (called by
// to(), before the state changes) into the kind/state histogram, the
// tracked timeline, and — when a tracer is attached — a nested child
// span on the owning component's track.
func (t *txn) observeDwell(a *txnAttr, now sim.Cycle) {
	d := uint64(now - t.stateEnter)
	a.dwell[t.kind][t.state].Observe(d)
	if t.track {
		if len(t.tl) < maxTimelineSegs {
			t.tl = append(t.tl, tlSeg{st: t.state, cycles: d})
		} else {
			t.tlTrunc = true
		}
	}
	if t.h.tracer != nil && d > 0 {
		// The track follows the component running this transaction: the
		// issuing tile's L2 for accesses, the home bank otherwise.
		comp := t.h.comp.l2[t.tileID]
		if t.kind != kindAccess {
			comp = t.h.comp.l3[t.home]
		}
		t.h.tracer.EmitSpan(uint64(t.stateEnter), uint64(now), comp, txnSpanNames[t.state], "")
	}
	t.stateEnter = now
}

// finishAttr closes out a completed transaction: the total window
// (opStart → now) goes to the kind's total histogram, and tracked demand
// accesses are offered to the slow ring. Called by run() in the same
// cycle as the final transition, so the total equals the summed dwell.
func (t *txn) finishAttr(a *txnAttr) {
	total := uint64(t.h.K.Now() - t.opStart)
	a.total[t.kind].Observe(total)
	if t.track {
		a.ring.offer(t, total)
	}
}

// offer inserts a tracked access into the ring if it is slower than the
// cheapest survivor (or the ring has room). The evicted entry's timeline
// slice is reused for the copy, so a warmed ring stops allocating.
func (r *slowRing) offer(t *txn, lat uint64) {
	if r.k == 0 {
		return
	}
	var reuse []tlSeg
	if len(r.slow) >= r.k {
		if lat <= r.slow[0].lat {
			return
		}
		reuse = r.slow[0].tl[:0]
		copy(r.slow, r.slow[1:])
		r.slow = r.slow[:len(r.slow)-1]
	}
	e := slowEntry{
		tile:      t.tileID,
		la:        t.la,
		write:     t.o.write,
		start:     t.opStart,
		lat:       lat,
		tl:        append(reuse, t.tl...),
		truncated: t.tlTrunc,
	}
	// Insert keeping ascending latency order; among equals the earlier
	// access stays closer to eviction, so the newest equal survivor wins
	// ties deterministically.
	i := sort.Search(len(r.slow), func(i int) bool { return r.slow[i].lat > lat })
	r.slow = append(r.slow, slowEntry{})
	copy(r.slow[i+1:], r.slow[i:])
	r.slow[i] = e
}

// SlowestAccesses returns the captured slowest demand accesses, slowest
// first, with rendered state timelines. Nil when attribution is disarmed
// or SlowestK is 0.
func (h *Hierarchy) SlowestAccesses() []SlowAccess {
	if h.attr == nil {
		return nil
	}
	entries := h.attr.ring.slow
	if len(entries) == 0 {
		return nil
	}
	out := make([]SlowAccess, 0, len(entries))
	for i := len(entries) - 1; i >= 0; i-- {
		e := &entries[i]
		s := SlowAccess{
			Tile:      e.tile,
			Addr:      e.la.String(),
			Write:     e.write,
			Start:     uint64(e.start),
			Latency:   e.lat,
			Timeline:  make([]SlowSegment, len(e.tl)),
			Truncated: e.truncated,
		}
		for j, seg := range e.tl {
			s.Timeline[j] = SlowSegment{State: txnStateNames[seg.st], Cycles: seg.cycles}
		}
		out = append(out, s)
	}
	return out
}
