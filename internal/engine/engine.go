// Package engine models täkō's per-tile engines (§5.3): a hardware
// scheduler with a bounded callback buffer and bitstream cache, plus a
// spatial dataflow fabric of simple processing elements that executes
// callbacks in SIMD fashion across cache lines.
//
// Callbacks are Go functions operating on a Ctx; their *timing* comes
// from a static cost model declared per callback (dynamic instruction
// count and dataflow critical path) checked against fabric capacity,
// while their *memory* operations run through the modeled hierarchy via
// the engine's coherent L1d, paying real latencies. This reproduces the
// properties the paper's sensitivity studies probe: fabric size and PE
// latency change compute time (Figs 22, 23), the callback buffer bounds
// concurrency (§9), and an in-order-core engine serializes memory-level
// parallelism and loses SIMD, which is why it "performs very poorly".
package engine

import (
	"fmt"

	"tako/internal/energy"
	"tako/internal/flat"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/trace"
)

// Config describes the engine microarchitecture (defaults: Table 3 /
// §5.4).
type Config struct {
	FabricW, FabricH int       // PE grid (5×5)
	MemPEs           int       // PEs with memory ports (10)
	PELatency        sim.Cycle // arithmetic PE latency (1 cycle)
	InstrPerPE       int       // instruction-memory slots per PE (16)
	TokensPerPE      int       // token-store entries per PE (8)
	CallbackBuffer   int       // concurrent callbacks (8)
	BitstreamLoad    sim.Cycle // cycles to load a Morph's bitstream
	BitstreamSlots   int       // Morphs resident in the bitstream cache

	// InOrderCore replaces the fabric with an in-order scalar core
	// (the alternative evaluated in Fig 22): no SIMD (line-wide ops
	// pay per-element) and a higher per-instruction cost. Every engine
	// memory access is synchronous on either engine.
	InOrderCore bool
	// Ideal removes all compute cost and concurrency limits; callback
	// latency is memory latency and data dependencies only (§7).
	Ideal bool

	// SIMDWidth is the number of elements a fabric op processes at
	// once (8 × 64-bit words per line).
	SIMDWidth int
	// InOrderCPI is the in-order core's cycles per instruction.
	InOrderCPI sim.Cycle
}

// DefaultConfig returns the paper's engine: 5×5 fabric, 15 int + 10 mem
// PEs, 1-cycle PEs, 8-entry callback buffer.
func DefaultConfig() Config {
	return Config{
		FabricW: 5, FabricH: 5,
		MemPEs:         10,
		PELatency:      1,
		InstrPerPE:     16,
		TokensPerPE:    8,
		CallbackBuffer: 8,
		BitstreamLoad:  64,
		BitstreamSlots: 4,
		SIMDWidth:      8,
		InOrderCPI:     2,
	}
}

// IdealConfig returns the idealized engine used as the paper's upper
// bound: unlimited, 0-cycle compute.
func IdealConfig() Config {
	c := DefaultConfig()
	c.Ideal = true
	return c
}

// IntPEs returns the number of arithmetic PEs.
func (c Config) IntPEs() int {
	n := c.FabricW*c.FabricH - c.MemPEs
	if n < 1 {
		n = 1
	}
	return n
}

// TotalInstrSlots returns fabric instruction-memory capacity.
func (c Config) TotalInstrSlots() int { return c.FabricW * c.FabricH * c.InstrPerPE }

// TotalTokenSlots returns fabric token-store capacity.
func (c Config) TotalTokenSlots() int { return c.FabricW * c.FabricH * c.TokensPerPE }

// CallbackCost is the static dataflow mapping of one callback: its
// dynamic instruction count and critical-path length in fabric ops.
type CallbackCost struct {
	Instrs   int
	CritPath int
}

// Spec describes one runnable callback to the engine.
type Spec struct {
	Cost CallbackCost
	// Sequential serializes all invocations of this callback on a
	// tile (HATS sequentializes onMiss to protect its shared stack,
	// §8.2); otherwise invocations serialize per address only.
	Sequential bool
	Fn         func(ctx *Ctx)
}

// Program resolves Morph callbacks for the engine; implemented by the
// core täkō package.
type Program interface {
	// Spec returns the callback for (morphID, kind); ok=false if the
	// Morph does not implement it.
	Spec(morphID int, kind hier.CallbackKind) (Spec, bool)
	// View returns the engine-local view of the Morph on this tile
	// (per-engine state, §4.2).
	View(morphID, tile int) interface{}
}

// Stats aggregates per-engine activity.
type Stats struct {
	Callbacks   uint64
	Instrs      uint64
	BusyCycles  sim.Cycle
	BitLoads    uint64
	MaxQueue    int
	Interrupts  uint64
	MemAccesses uint64
}

type engTile struct {
	buffer *sim.Semaphore
	// addrChain serializes callbacks per address: line address → the
	// newest queued callback. Open-addressed — every callback inserts
	// and deletes here.
	addrChain flat.Table[*callback]
	seqChain  map[int]*callback // per-morph sequential chain
	loaded    map[int]uint64    // bitstream cache: morphID -> last use
	tick      uint64
	nextFree  sim.Cycle // fabric issue-bandwidth pipeline
	stats     Stats
	queued    int
	names     [3]string // pre-rendered "cb:<kind>@<tile>" proc names, by kind
}

// Engines implements hier.Runner for every tile. Every tile's engine
// schedules its work on the machine's kernel.
type Engines struct {
	k     *sim.Kernel
	cfg   Config
	prog  Program
	meter *energy.Meter
	h     *hier.Hierarchy
	tiles []*engTile

	// Interrupt delivers a user-space interrupt raised by a callback
	// (§8.4); wired by the system to the victim thread's handler.
	Interrupt func(tile, morphID int, addr mem.Addr)

	// Latency attribution (resolved in AttachHierarchy, indexed by
	// CallbackKind): queueing delay from schedule to buffer admission,
	// engine occupancy while executing, and end-to-end latency.
	queueHist, execHist, totalHist [3]*stats.Histogram
	comp                           []string // pre-rendered "engine.N" labels

	pool []*callback // finished callbacks, for reuse
}

// New builds engines for `tiles` tiles. The hierarchy is attached later
// with AttachHierarchy (engines and hierarchy reference each other).
func New(k *sim.Kernel, cfg Config, tiles int, prog Program, meter *energy.Meter) *Engines {
	e := &Engines{k: k, cfg: cfg, prog: prog, meter: meter}
	for i := 0; i < tiles; i++ {
		t := &engTile{
			buffer:   sim.NewSemaphore(k, maxInt(cfg.CallbackBuffer, 1)),
			seqChain: make(map[int]*callback),
			loaded:   make(map[int]uint64),
		}
		for kind := hier.CbMiss; kind <= hier.CbWriteback; kind++ {
			t.names[kind] = fmt.Sprintf("cb:%s@%d", kind, i)
		}
		e.tiles = append(e.tiles, t)
	}
	return e
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AttachHierarchy wires the hierarchy the engines load and store through,
// and resolves the callback latency-attribution handles from its metrics
// registry.
func (e *Engines) AttachHierarchy(h *hier.Hierarchy) {
	e.h = h
	if h == nil {
		return
	}
	for k := hier.CbMiss; k <= hier.CbWriteback; k++ {
		l := stats.L("kind", k.String())
		e.queueHist[k] = h.Metrics.Histogram("cb.queue.cycles", l)
		e.execHist[k] = h.Metrics.Histogram("cb.exec.cycles", l)
		e.totalHist[k] = h.Metrics.Histogram("cb.total.cycles", l)
	}
	e.comp = e.comp[:0]
	for i := range e.tiles {
		e.comp = append(e.comp, fmt.Sprintf("engine.%d", i))
	}
}

// tracer returns the hierarchy's tracer (nil when tracing is off or no
// hierarchy is attached).
func (e *Engines) tracer() *trace.Tracer {
	if e.h == nil {
		return nil
	}
	return e.h.Tracer()
}

// Config returns the engine configuration.
func (e *Engines) Config() Config { return e.cfg }

// Stats returns tile's engine stats.
func (e *Engines) Stats(tile int) Stats { return e.tiles[tile].stats }

// TotalStats sums stats across engines.
func (e *Engines) TotalStats() Stats {
	var s Stats
	for _, t := range e.tiles {
		s.Callbacks += t.stats.Callbacks
		s.Instrs += t.stats.Instrs
		s.BusyCycles += t.stats.BusyCycles
		s.BitLoads += t.stats.BitLoads
		s.Interrupts += t.stats.Interrupts
		s.MemAccesses += t.stats.MemAccesses
		if t.stats.MaxQueue > s.MaxQueue {
			s.MaxQueue = t.stats.MaxQueue
		}
	}
	return s
}

// Saturated implements hier.Runner: the callback buffer is full.
func (e *Engines) Saturated(tile int) bool {
	if e.cfg.Ideal {
		return false
	}
	return e.tiles[tile].buffer.Saturated()
}

// Run implements hier.Runner: schedule a callback on tile's engine. Its
// futures come from the kernel's pool and belong to the caller, which
// recycles them once it has resumed past done.
func (e *Engines) Run(tile int, kind hier.CallbackKind, b hier.Binding, addr mem.Addr, line *mem.Line) (accepted, done *sim.Future) {
	t, k := e.tiles[tile], e.k
	spec, ok := e.prog.Spec(b.MorphID, kind)
	if !ok {
		// No such callback: complete immediately (hier normally
		// filters these via the Binding Has* flags).
		f := sim.CompletedFuture(k)
		return f, f
	}
	c := e.getCallback()
	c.t, c.tile, c.kind, c.spec, c.b, c.addr, c.line = t, tile, kind, spec, b, addr, line
	c.accepted, c.done = k.GetFuture(), k.GetFuture()
	c.sched = k.Now()
	t.queued++
	if t.queued > t.stats.MaxQueue {
		t.stats.MaxQueue = t.queued
	}

	// Serialization: per-address always; whole-callback if Sequential.
	if spec.Sequential {
		c.pred = t.seqChain[b.MorphID]
		t.seqChain[b.MorphID] = c
	} else {
		c.pred, _ = t.addrChain.Get(uint64(addr))
		t.addrChain.Put(uint64(addr), c)
	}
	if c.pred != nil {
		c.pred.succ = c
	}
	k.AfterTask(0, c)
	return c.accepted, c.done
}

// callback is one Morph callback on its way through a tile's engine
// (§5.3). Its queueing — the wait for the callback ahead of it on its
// chain, a callback-buffer slot, a bitstream load — and its fabric
// compute time run as kernel continuations (the callback is a sim.Task
// with no issuer), each queued where a process waiting in its place
// would have its wake queued; only the Morph's Fn runs on a process,
// which Resume enters in place. Callbacks are pooled on the Engines, with
// body bound once, so scheduling one allocates nothing once the pool is
// warm.
type callback struct {
	e    *Engines
	t    *engTile
	tile int
	kind hier.CallbackKind
	spec Spec
	b    hier.Binding
	addr mem.Addr
	line *mem.Line

	// accepted and done are the futures Run returned. The caller owns
	// them and may recycle them as soon as done completes, so the
	// callback queued behind this one reads done only while its pred
	// link says this one is unfinished.
	accepted, done *sim.Future
	// pred is the unfinished callback ahead of this one on its chain
	// (nil once it finishes); succ is the one queued behind this one.
	pred, succ *callback

	sched, start sim.Cycle // Run's cycle; the buffer admission's
	phase        uint8
	ctx          Ctx // the Fn's environment, zeroed when the callback ends

	body func(*sim.Proc) // exec, bound once
}

// Issuer makes a callback a sim.Task no proc waits on.
func (c *callback) Issuer() *sim.Proc { return nil }

// getCallback returns a pooled, zeroed callback.
func (e *Engines) getCallback() *callback {
	if n := len(e.pool); n > 0 {
		c := e.pool[n-1]
		e.pool = e.pool[:n-1]
		return c
	}
	c := &callback{e: e}
	c.body = c.exec
	return c
}

// Resume steps through the callback: phase 0 waits for the callback ahead
// of it on its chain to finish, 1 takes a callback-buffer slot, 2 admits
// the callback and loads its Morph's bitstream if it is not resident, 3
// enters a process for the Fn (exec), and 4 ends the callback once its
// fabric compute time has passed.
func (c *callback) Resume() {
	e, t := c.e, c.t
	switch c.phase {
	case 0:
		c.phase = 1
		if c.pred != nil {
			c.pred.done.Then(c)
			return
		}
		fallthrough
	case 1:
		c.phase = 2
		if !e.cfg.Ideal && !t.buffer.AcquireThen(c) {
			return
		}
		fallthrough
	case 2:
		c.accepted.Complete()
		c.start = e.k.Now()
		c.phase = 3
		if !e.cfg.Ideal && e.loadBitstream(t, c.b.MorphID) {
			e.k.AfterTask(e.cfg.BitstreamLoad, c)
			return
		}
		fallthrough
	case 3:
		c.phase = 4
		e.k.Enter(t.names[c.kind], c.body)
	default:
		c.finish()
	}
}

// exec runs the Morph's Fn on p, the process Resume entered, and then
// queues the end of the callback after its fabric compute time, or ends
// it at once when it has none.
func (c *callback) exec(p *sim.Proc) {
	e := c.e
	c.ctx = Ctx{
		P: p, Tile: c.tile, Level: c.b.Level, Addr: c.addr, Line: c.line,
		Kind: c.kind, MorphID: c.b.MorphID,
		engines: e, tile: c.t,
	}
	if e.prog != nil {
		c.ctx.view = e.prog.View(c.b.MorphID, c.tile)
	}
	c.spec.Fn(&c.ctx)
	if lat, ok := e.computeTime(c.t, c.spec.Cost, c.ctx.extraOps); ok {
		e.k.AfterTask(lat, c)
		return
	}
	c.finish()
}

// finish ends the callback: it charges its instructions, records its
// latencies, frees its buffer slot and its place on its chain, completes
// done and returns the callback to the pool.
func (c *callback) finish() {
	e, t, kind := c.e, c.t, c.kind
	instrs := uint64(c.spec.Cost.Instrs + c.ctx.extraOps)
	t.stats.Instrs += instrs
	if e.meter != nil {
		e.meter.Add(energy.EngineInstr, instrs)
	}
	start, end := c.start, e.k.Now()
	t.stats.BusyCycles += end - start
	t.stats.Callbacks++
	// Latency attribution: schedule → admission (queue), admission →
	// completion (exec), and the whole life of the callback.
	e.queueHist[kind].Observe(start - c.sched)
	e.execHist[kind].Observe(end - start)
	e.totalHist[kind].Observe(end - c.sched)
	if tr := e.tracer(); tr != nil && c.tile < len(e.comp) {
		comp := e.comp[c.tile]
		// Nested slices on the engine track: the cb.<kind> span
		// encloses its queue and exec phases.
		tr.EmitSpan(c.sched, end, comp, "cb."+kind.String(), c.addr.String())
		tr.EmitSpan(c.sched, start, comp, "cb.queue", "")
		tr.EmitSpan(start, end, comp, "cb.exec", kind.String())
	}
	if !e.cfg.Ideal {
		t.buffer.Release()
	}
	t.queued--
	if c.spec.Sequential {
		if t.seqChain[c.b.MorphID] == c {
			delete(t.seqChain, c.b.MorphID)
		}
	} else if last, _ := t.addrChain.Get(uint64(c.addr)); last == c {
		t.addrChain.Delete(uint64(c.addr))
	}
	if c.succ != nil {
		c.succ.pred = nil
	}
	c.done.Complete()
	*c = callback{e: e, body: c.body}
	e.pool = append(e.pool, c)
}

// computeTime applies the fabric timing model to one invocation, and
// reports false when it takes no time.
//
// Dataflow fabric: latency = max(critical path × PE latency, issue
// occupancy), where occupancy = ceil(instrs / int PEs) × PE latency;
// occupancy also serializes through the shared fabric pipeline, so
// concurrent callbacks contend for issue bandwidth.
//
// In-order core: no SIMD (ops multiply by SIMDWidth) and CPI > 1. The
// handler's memory ops need no serializing here: every one of them
// blocked the callback while it ran.
func (e *Engines) computeTime(t *engTile, cost CallbackCost, extraOps int) (sim.Cycle, bool) {
	instrs := cost.Instrs + extraOps
	if e.cfg.Ideal || instrs == 0 {
		return 0, false
	}
	if e.cfg.InOrderCore {
		return sim.Cycle(instrs) * e.cfg.InOrderCPI * sim.Cycle(e.cfg.SIMDWidth), true
	}
	occ := sim.Cycle((instrs+e.cfg.IntPEs()-1)/e.cfg.IntPEs()) * e.cfg.PELatency
	lat := sim.Cycle(cost.CritPath) * e.cfg.PELatency
	if occ > lat {
		lat = occ
	}
	start := e.k.Now()
	if t.nextFree > start {
		lat += t.nextFree - start
	}
	if t.nextFree < start {
		t.nextFree = start
	}
	t.nextFree += occ
	return lat, true
}

// loadBitstream does the bitstream-cache lookup and reports whether the
// Morph's configuration must be loaded onto the fabric, which takes
// BitstreamLoad cycles (§5.3).
func (e *Engines) loadBitstream(t *engTile, morphID int) bool {
	t.tick++
	if _, ok := t.loaded[morphID]; ok {
		t.loaded[morphID] = t.tick
		return false
	}
	if len(t.loaded) >= maxInt(e.cfg.BitstreamSlots, 1) {
		var victim int
		oldest := uint64(0)
		first := true
		for id, use := range t.loaded {
			if first || use < oldest {
				victim, oldest, first = id, use, false
			}
		}
		delete(t.loaded, victim)
	}
	t.loaded[morphID] = t.tick
	t.stats.BitLoads++
	return true
}

// ValidateFit checks a Morph's callbacks fit the fabric's instruction
// memory (the paper's largest Morph uses 94 of 400 slots, §5.3).
func (e *Engines) ValidateFit(totalInstrs int) error {
	if e.cfg.Ideal || e.cfg.InOrderCore {
		return nil
	}
	if totalInstrs > e.cfg.TotalInstrSlots() {
		return fmt.Errorf("engine: Morph needs %d instruction slots, fabric has %d",
			totalInstrs, e.cfg.TotalInstrSlots())
	}
	return nil
}
