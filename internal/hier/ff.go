package hier

import (
	"fmt"
	"sync/atomic"
	"time"

	"tako/internal/analytic"
	"tako/internal/mem"
	"tako/internal/sim"
)

// Analytical fast-forward (system.Config.FastForward): the first N core
// memory accesses are executed functionally against the backing store
// while the analytical collector (internal/analytic) observes the
// stream — no transactions, no coherence protocol, no event-kernel
// churn per access. The collector keeps exact L1/L2/dTLB content per
// tile and stack distances only for the shared level's private-miss
// stream, which is all the model scores. When the budget is exhausted,
// the caches, TLBs, and directory are seeded from the collector's
// steady-state occupancy (seed.go) and the full event kernel takes over
// for the capture window.
//
// Fast-forward is exact functionally (values, including atomics, are
// bit-identical to full simulation on the cooperative kernel) and
// approximate temporally (warmup cycles are estimated, not simulated),
// so it is default-off and runs only on baseline (NoTako) machines:
// morph callbacks need the event kernel per access.

const (
	// ffRetime is the access count between sleep-batch latency refreshes.
	ffRetime = 1 << 16
	// ffSleepEvery batches virtual time: each proc sleeps once per this
	// many fast-forwarded accesses, keeping the cooperative kernel fair
	// (a proc that never sleeps would starve its siblings) while
	// spending a small fraction of the event-heap traffic. The batch
	// width is a fidelity/speed trade: it coarsens how tile streams
	// interleave into the merged shared-level stack, which the
	// capacity-straddling oracle workloads are sensitive to (at 256 the
	// uniform-llc L3 row drifts past 6% absolute; at 64 it stays within
	// ~1%, indistinguishable from per-access interleaving).
	ffSleepEvery = 64
)

// ffState is one hierarchy's fast-forward engine.
type ffState struct {
	budget   uint64
	done     uint64
	switched bool

	col   *analytic.Collector // nil once ffSwitch has seeded from it
	model analytic.Model

	// Per-tile access counters driving the batched fairness sleeps, and
	// the per-batch latency (re-derived from the model every ffRetime
	// accesses so fast-forwarded virtual time tracks the estimate).
	counts   []uint32
	batchLat sim.Cycle

	// progress is where the run's progress is reported (nil: nowhere);
	// reported is the done count already folded into it (updated
	// periodically, not per access).
	progress *FFProgress
	reported uint64

	seeded ffSeedCounts
}

// ffSeedCounts records how much warm state the switchover installed.
type ffSeedCounts struct {
	L1, L2, L3, TLB, Dir int
}

// FFProgress aggregates fast-forward progress across the hierarchies
// that report to it (a run window's, which may run concurrently);
// introspect's /progress endpoint renders it with an ETA.
type FFProgress struct {
	active     atomic.Int64
	done       atomic.Uint64
	budget     atomic.Uint64
	startNanos atomic.Int64
}

// FFView is a snapshot of FFProgress.
type FFView struct {
	Active   int    // hierarchies currently fast-forwarding
	Accesses uint64 // accesses fast-forwarded so far (all runs)
	Budget   uint64 // total accesses budgeted (all runs)
	PerSec   float64
}

// Snapshot returns the progress so far.
func (p *FFProgress) Snapshot() FFView {
	v := FFView{
		Active:   int(p.active.Load()),
		Accesses: p.done.Load(),
		Budget:   p.budget.Load(),
	}
	if start := p.startNanos.Load(); start != 0 && v.Accesses > 0 {
		if el := time.Since(time.Unix(0, start)).Seconds(); el > 0 {
			v.PerSec = float64(v.Accesses) / el
		}
	}
	return v
}

// report folds the accesses f did since its last report into its
// progress; ended also counts f as no longer fast-forwarding.
func (f *ffState) report(ended bool) {
	p := f.progress
	if p == nil {
		return
	}
	p.done.Add(f.done - f.reported)
	f.reported = f.done
	if ended {
		p.active.Add(-1)
	}
}

// EnableFastForward arms analytical fast-forward for the first budget
// core accesses (0 leaves it off), reporting its progress to progress
// (nil: nowhere). Baseline machines only.
func (h *Hierarchy) EnableFastForward(budget uint64, progress *FFProgress) {
	if h.registry != nil {
		panic("hier: fast-forward on a täkō machine is unsupported (morph callbacks need the event kernel " +
			"per access); fast-forward baseline (NoTako) machines, or clear FastForward")
	}
	if budget == 0 {
		return
	}
	cfg := h.cfg
	lineGeom := func(size, ways, banks int) analytic.Geom {
		return analytic.Geom{Sets: banks * size / (mem.LineSize * ways), Ways: ways}
	}
	dtlbCfg := h.tiles[0].dtlb.Config()
	f := &ffState{
		budget: budget,
		col: analytic.NewCollector(cfg.Tiles, uint(dtlbCfg.PageBits),
			lineGeom(cfg.L1Size, cfg.L1Ways, 1), lineGeom(cfg.L2Size, cfg.L2Ways, 1), dtlbCfg.Entries),
		counts: make([]uint32, cfg.Tiles),
		model: analytic.Model{
			L3: lineGeom(cfg.L3BankSize, cfg.L3Ways, cfg.Tiles),
			Lat: analytic.Latencies{
				L1:      float64(cfg.L1Latency),
				L2:      float64(cfg.L2TagLat + cfg.L2DataLat),
				L3:      float64(cfg.L3TagLat+cfg.L3DataLat) + 10, // + average mesh round trip
				Mem:     60,                                       // average controller + device
				TLBWalk: 30,
			},
		},
		batchLat: ffSleepEvery, // until the first retime
		progress: progress,
	}
	h.ff = f
	if progress != nil {
		progress.active.Add(1)
		progress.budget.Add(budget)
		progress.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	}
	h.Metrics.Counter("ff.accesses")
	h.Metrics.Counter("ff.switch.cycle")
}

// ffGate reports whether the calling access should take the analytical
// fast path. When the budget is exhausted it performs the switchover —
// seeding warm state and handing control to the event kernel — and the
// triggering access runs the normal path against a warm hierarchy.
func (h *Hierarchy) ffGate(p *sim.Proc) bool {
	f := h.ff
	if f == nil || f.switched {
		return false
	}
	if f.done >= f.budget {
		h.ffSwitch(p)
		return false
	}
	return true
}

// ffTouch records one fast-forwarded access: the collector observes it,
// the model folds the sample into the running estimate, and
// every ffSleepEvery-th access per tile sleeps the batched latency so
// virtual time advances and sibling procs stay scheduled.
//
// Fast paths call ffTouch AFTER their functional effect: the sleep must
// come last, because another proc can reach the budget and switch over
// (seeding caches from the backing store) while this one is parked — a
// store performed after that seed would be invisible to the now-live
// caches. With the sleep trailing, every fast-path effect is already in
// the backing store before any switchover can observe it.
func (h *Hierarchy) ffTouch(p *sim.Proc, tileID int, a mem.Addr) {
	f := h.ff
	f.model.Observe(f.col.Touch(tileID, a))
	f.done++
	f.counts[tileID]++
	if f.counts[tileID]%ffSleepEvery == 0 {
		p.Sleep(f.batchLat)
	}
	if f.done%ffRetime == 0 {
		f.retime()
		f.report(false)
	}
}

// retime re-derives the per-batch sleep from the analytical average
// latency, so fast-forwarded virtual time approximates what simulation
// would have charged. Deterministic: derived only from the access
// stream itself.
func (f *ffState) retime() {
	avg := f.model.Estimate().AvgLat
	lat := sim.Cycle(avg * ffSleepEvery)
	if lat < 1 {
		lat = 1
	}
	f.batchLat = lat
}

// ffSwitch ends fast-forward: warm state is seeded from the collector's
// steady-state occupancy (seed.go) and subsequent accesses run the full
// event-kernel protocol. The collector is dropped once seeded: only the
// model's estimate (FFEstimate) is read afterwards.
func (h *Hierarchy) ffSwitch(p *sim.Proc) {
	f := h.ff
	f.switched = true
	f.seeded = h.seedWarmState(f.col)
	f.col = nil
	h.Metrics.Counter("ff.accesses").Add(f.done)
	h.Metrics.Counter("ff.switch.cycle").Add(uint64(p.Now()))
	h.Metrics.Counter("ff.seed.l1").Add(uint64(f.seeded.L1))
	h.Metrics.Counter("ff.seed.l2").Add(uint64(f.seeded.L2))
	h.Metrics.Counter("ff.seed.l3").Add(uint64(f.seeded.L3))
	h.Metrics.Counter("ff.seed.tlb").Add(uint64(f.seeded.TLB))
	f.report(true)
}

// FinishFF closes the books on a run that ended before its fast-forward
// budget was spent (the whole workload fit in the warmup window): the
// progress gauges are settled and the estimate stays available. No-op
// when fast-forward was off or already switched.
func (h *Hierarchy) FinishFF() {
	f := h.ff
	if f == nil || f.switched {
		return
	}
	f.switched = true
	h.Metrics.Counter("ff.accesses").Add(f.done)
	f.report(true)
}

// FFAccesses returns the number of accesses that were fast-forwarded
// (0 when fast-forward is off).
func (h *Hierarchy) FFAccesses() uint64 {
	if h.ff == nil {
		return 0
	}
	return h.ff.done
}

// FFEstimate returns the analytical estimate accumulated over the
// fast-forwarded prefix and whether fast-forward was enabled.
func (h *Hierarchy) FFEstimate() (analytic.Estimate, bool) {
	if h.ff == nil {
		return analytic.Estimate{}, false
	}
	return h.ff.model.Estimate(), true
}

// The functional fast paths below implement each public access's
// architectural semantics directly against the backing store. The
// cooperative kernel guarantees atomicity: none of them sleep
// mid-operation.

func (h *Hierarchy) ffLoad(p *sim.Proc, tileID int, a mem.Addr) uint64 {
	v := h.DRAM.Store().ReadU64(a &^ 7)
	if h.obs != nil {
		h.obs.LoadCommitted(tileID, a, v)
	}
	h.ffTouch(p, tileID, a)
	return v
}

func (h *Hierarchy) ffStore(p *sim.Proc, tileID int, a mem.Addr, v uint64) {
	h.DRAM.Store().WriteU64(a&^7, v)
	if h.obs != nil {
		h.obs.StoreCommitted(tileID, a, v)
	}
	h.ffTouch(p, tileID, a)
}

func (h *Hierarchy) ffLoadLine(p *sim.Proc, tileID int, a mem.Addr) mem.Line {
	var line mem.Line
	h.DRAM.Store().PeekLine(a.Line(), &line)
	if h.obs != nil {
		h.obs.LineLoaded(tileID, a, &line)
	}
	h.ffTouch(p, tileID, a)
	return line
}

func (h *Hierarchy) ffStoreLine(p *sim.Proc, tileID int, a mem.Addr, line *mem.Line, nt bool) {
	h.DRAM.Store().WriteLine(a.Line(), line)
	if h.obs != nil {
		// The observer gets a copy, so the caller's line does not
		// escape through the interface call.
		l := *line
		h.obs.LineStored(tileID, a, &l, nt)
	}
	h.ffTouch(p, tileID, a)
}

func (h *Hierarchy) ffAtomicRMO(p *sim.Proc, tileID int, a mem.Addr, op RMOOp, v uint64) {
	st := h.DRAM.Store()
	aa := a &^ 7
	old := st.ReadU64(aa)
	st.WriteU64(aa, op.apply(old, v))
	if h.obs != nil {
		h.obs.RMOCommitted(tileID, a, op, v, old, op.apply(old, v))
	}
	h.ffTouch(p, tileID, a)
}

func (h *Hierarchy) ffAtomicExchange(p *sim.Proc, tileID int, a mem.Addr, v uint64) uint64 {
	st := h.DRAM.Store()
	aa := a &^ 7
	old := st.ReadU64(aa)
	st.WriteU64(aa, v)
	if h.obs != nil {
		h.obs.ExchangeCommitted(tileID, a, v, old)
	}
	h.ffTouch(p, tileID, a)
	return old
}

// FFString describes the fast-forward state for diagnostics.
func (h *Hierarchy) FFString() string {
	f := h.ff
	if f == nil {
		return "ff: off"
	}
	return fmt.Sprintf("ff: done=%d budget=%d switched=%v seeded=%+v",
		f.done, f.budget, f.switched, f.seeded)
}
