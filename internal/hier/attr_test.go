package hier

import (
	"testing"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/tlb"
	"tako/internal/trace"
)

func newAttrH(tiles, slowestK int) (*sim.Kernel, *Hierarchy) {
	k := sim.NewKernel()
	cfg := DefaultConfig(tiles)
	cfg.Attribution = true
	cfg.SlowestK = slowestK
	h := New(k, cfg, energy.NewMeter(), nil, nil)
	return k, h
}

// sumDwell sums the per-state dwell cycles recorded for one kind.
func sumDwell(h *Hierarchy, k txnKind) float64 {
	var sum float64
	for s := 0; s < nTxnStates; s++ {
		sum += h.attr.dwell[k][s].Sum()
	}
	return sum
}

// TestAttributionConservationSingleLoad is the conservation gate from
// the issue: for a single demand load (no stores, no prefetch streams),
// the per-state dwell cycles of the access transaction sum exactly to
// the recorded load.latency, and the tracked timeline sums to the same.
func TestAttributionConservationSingleLoad(t *testing.T) {
	k, h := newAttrH(1, 4)
	h.DRAM.Store().WriteU64(0x1000, 99)
	k.Go("core", func(p *sim.Proc) {
		if v := h.Load(p, 0, 0x1000); v != 99 {
			t.Errorf("load = %d, want 99", v)
		}
	})
	k.Run()

	loadLat := h.Metrics.Histogram("load.latency").Sum()
	if loadLat <= 0 {
		t.Fatalf("load.latency sum = %v, want > 0", loadLat)
	}
	if got := sumDwell(h, kindAccess); got != loadLat {
		t.Fatalf("Σ access dwell = %v, load.latency sum = %v (conservation broken)", got, loadLat)
	}
	if got := h.attr.total[kindAccess].Sum(); got != loadLat {
		t.Fatalf("txn.total.cycles{access} = %v, load.latency = %v", got, loadLat)
	}

	slow := h.SlowestAccesses()
	if len(slow) != 1 {
		t.Fatalf("slowest accesses = %d, want 1", len(slow))
	}
	if slow[0].Latency != uint64(loadLat) {
		t.Fatalf("slowest latency = %d, load.latency = %v", slow[0].Latency, loadLat)
	}
	var tlSum uint64
	for _, seg := range slow[0].Timeline {
		tlSum += seg.Cycles
	}
	if tlSum != slow[0].Latency {
		t.Fatalf("timeline sum = %d, latency = %d", tlSum, slow[0].Latency)
	}
	if slow[0].Truncated {
		t.Fatalf("single load should not truncate its timeline")
	}
}

// TestAttributionEngineTranslation: an engine access translates through
// the tile's rTLB in its transaction's Idle state, as a core access does
// through the dTLB. One engine load on a cold rTLB records exactly the
// rTLB walk latency as the access kind's Idle dwell, and the kind's dwell
// still sums to its total.
func TestAttributionEngineTranslation(t *testing.T) {
	k, h := newAttrH(1, 0)
	walk, hit := tlb.New(h.cfg.RTLB).Lookup(0x1000)
	if hit || walk == 0 {
		t.Fatalf("a cold rTLB lookup took %d cycles (hit %v), want a walk", walk, hit)
	}
	k.Go("engine", func(p *sim.Proc) { h.EngineLoadWord(p, 0, 0x1000, LevelShared) })
	k.Run()
	if got := h.attr.dwell[kindAccess][txnIdle].Sum(); got != float64(walk) {
		t.Fatalf("access Idle dwell = %v cycles, want the rTLB walk's %d", got, walk)
	}
	if dwell, total := sumDwell(h, kindAccess), h.attr.total[kindAccess].Sum(); dwell != total {
		t.Fatalf("Σ access dwell = %v, txn.total.cycles{access} = %v", dwell, total)
	}
}

// TestAttributionConservationWorkload checks the per-kind invariant on a
// mixed multi-tile workload: for every transaction kind, the summed
// per-state dwell equals the summed totals, and every captured slow
// access's timeline sums to its latency.
func TestAttributionConservationWorkload(t *testing.T) {
	k, h := newAttrH(4, 8)
	for i := 0; i < 4; i++ {
		tile := i
		k.Go("core", func(p *sim.Proc) {
			base := mem.Addr(0x10000 * (tile + 1))
			for j := 0; j < 64; j++ {
				a := base + mem.Addr(j*64)
				h.Store(p, tile, a, uint64(j))
				h.Load(p, tile, a)
				h.Load(p, (tile+1)%4, a) // cross-tile sharing: downgrades
			}
			var line mem.Line
			h.StoreLineNT(p, tile, base, &line)
			h.AtomicAddSync(p, tile, base+8, 1)
		})
	}
	k.Run()

	for kind := 0; kind < nTxnKinds; kind++ {
		dwell := sumDwell(h, txnKind(kind))
		total := h.attr.total[kind].Sum()
		if dwell != total {
			t.Errorf("kind %v: Σ state dwell = %v, Σ total = %v", txnKind(kind), dwell, total)
		}
	}
	if h.attr.total[kindAccess].Count() == 0 || h.attr.total[kindHomeFetch].Count() == 0 ||
		h.attr.total[kindNTStore].Count() == 0 || h.attr.total[kindRMO].Count() == 0 {
		t.Fatalf("workload should exercise access, home-fetch, nt-store, and rmo kinds")
	}

	slow := h.SlowestAccesses()
	if len(slow) == 0 || len(slow) > 8 {
		t.Fatalf("slowest accesses = %d, want 1..8", len(slow))
	}
	for i, s := range slow {
		if i > 0 && s.Latency > slow[i-1].Latency {
			t.Fatalf("slowest not sorted descending at %d: %d > %d", i, s.Latency, slow[i-1].Latency)
		}
		var sum uint64
		for _, seg := range s.Timeline {
			sum += seg.Cycles
		}
		if !s.Truncated && sum != s.Latency {
			t.Errorf("slow[%d] timeline sum = %d, latency = %d", i, sum, s.Latency)
		}
	}
}

// TestAttributionSnapshotNames checks the registry surface: armed runs
// expose txn.state.cycles{kind,state} and txn.total.cycles{kind}
// histograms in the snapshot, and only for states with outgoing edges.
func TestAttributionSnapshotNames(t *testing.T) {
	k, h := newAttrH(1, 0)
	h.DRAM.Store().WriteU64(0x40, 7)
	k.Go("core", func(p *sim.Proc) { h.Load(p, 0, 0x40) })
	k.Run()

	snap := h.Metrics.Snapshot()
	found := map[string]bool{}
	for _, hs := range snap.Histograms {
		found[hs.Name] = true
	}
	for _, want := range []string{
		"txn.total.cycles{kind=access}",
		"txn.state.cycles{kind=access,state=Idle}",
		"txn.state.cycles{kind=access,state=Lookup}",
		"txn.state.cycles{kind=home-fetch,state=HomeLocked}",
	} {
		if !found[want] {
			t.Errorf("snapshot missing %q", want)
		}
	}
	// Done has no outgoing edges for any kind; it must not be registered.
	for name := range found {
		if name == "txn.state.cycles{kind=access,state=Done}" {
			t.Errorf("snapshot has dwell histogram for terminal state Done")
		}
	}
}

// TestAttributionDisarmedIsInert: the default config records nothing and
// SlowestAccesses returns nil — the disarmed path the alloc gates run on.
func TestAttributionDisarmedIsInert(t *testing.T) {
	k, h := newH(1)
	h.DRAM.Store().WriteU64(0x40, 7)
	k.Go("core", func(p *sim.Proc) { h.Load(p, 0, 0x40) })
	k.Run()
	if h.attr != nil {
		t.Fatalf("attr armed on default config")
	}
	if got := h.SlowestAccesses(); got != nil {
		t.Fatalf("SlowestAccesses = %v, want nil when disarmed", got)
	}
	for _, hs := range h.Metrics.Snapshot().Histograms {
		if len(hs.Name) >= 4 && hs.Name[:4] == "txn." {
			t.Fatalf("disarmed run registered %q", hs.Name)
		}
	}
}

// TestSlowestRingBounded drives many distinct-latency accesses through a
// K=2 ring and checks it keeps exactly the two slowest.
func TestSlowestRingBounded(t *testing.T) {
	k, h := newAttrH(1, 2)
	k.Go("core", func(p *sim.Proc) {
		for j := 0; j < 32; j++ {
			a := mem.Addr(0x1000 + j*64)
			h.Load(p, 0, a) // cold misses, then
			h.Load(p, 0, a) // near-1-cycle hits
		}
	})
	k.Run()
	slow := h.SlowestAccesses()
	if len(slow) != 2 {
		t.Fatalf("ring kept %d, want 2", len(slow))
	}
	// The two survivors must both be misses (slower than any hit).
	if slow[0].Latency < slow[1].Latency {
		t.Fatalf("not sorted: %d < %d", slow[0].Latency, slow[1].Latency)
	}
	if slow[1].Latency <= 5 {
		t.Fatalf("a hit (%d cycles) survived over misses", slow[1].Latency)
	}
}

// TestLegalEdgesCoverage: observed coverage is a subset of LegalEdges,
// UnvisitedEdges is exactly the complement, and the upgrade/flush kinds
// missing from a read-only single-tile run show up as unvisited.
func TestLegalEdgesCoverage(t *testing.T) {
	k, h := newAttrH(1, 0)
	h.DRAM.Store().WriteU64(0x40, 7)
	k.Go("core", func(p *sim.Proc) { h.Load(p, 0, 0x40) })
	k.Run()

	legal := LegalEdges()
	legalSet := make(map[TxnTransition]bool, len(legal))
	for _, e := range legal {
		legalSet[e] = true
	}
	observed := h.TxnCoverage()
	for _, e := range observed {
		e.Count = 0
		if !legalSet[e] {
			t.Fatalf("observed edge %v not in LegalEdges", e)
		}
	}
	unvisited := UnvisitedEdges(observed)
	if len(observed)+len(unvisited) != len(legal) {
		t.Fatalf("observed %d + unvisited %d != legal %d",
			len(observed), len(unvisited), len(legal))
	}
	foundUpgrade := false
	for _, e := range unvisited {
		if e.Kind == "upgrade" {
			foundUpgrade = true
		}
		if e.Count != 0 {
			t.Fatalf("unvisited edge carries a count: %v", e)
		}
	}
	if !foundUpgrade {
		t.Fatalf("read-only run should leave upgrade edges unvisited")
	}
}

// TestTxnOrders pins the exported state/kind orderings reports rely on.
func TestTxnOrders(t *testing.T) {
	states := TxnStateOrder()
	if len(states) != nTxnStates || states[0] != "Idle" || states[len(states)-1] != "Done" {
		t.Fatalf("TxnStateOrder = %v", states)
	}
	kinds := TxnKindOrder()
	if len(kinds) != nTxnKinds || kinds[0] != "access" {
		t.Fatalf("TxnKindOrder = %v", kinds)
	}
}

// TestAttributionSpans: with a tracer attached and attribution armed,
// per-state child spans (txn.State) appear on the component tracks.
func TestAttributionSpans(t *testing.T) {
	k, h := newAttrH(1, 0)
	tr := trace.New(256)
	h.AttachTracer(tr)
	h.DRAM.Store().WriteU64(0x40, 7)
	k.Go("core", func(p *sim.Proc) { h.Load(p, 0, 0x40) })
	k.Run()
	var txnSpans int
	for _, e := range tr.Events() {
		if len(e.Kind) > 4 && e.Kind[:4] == "txn." {
			txnSpans++
			if e.Dur == 0 {
				t.Errorf("zero-duration txn span %q emitted", e.Kind)
			}
		}
	}
	if txnSpans == 0 {
		t.Fatalf("no txn.* state spans traced on an armed run")
	}
}
