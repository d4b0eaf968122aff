// Package cpu models the cores that run software threads. The model is
// deliberately abstract — workloads emit compute, load/store, atomic,
// and branch operations — but captures the knobs the paper's studies
// vary (§9, Fig 24): out-of-order cores overlap independent misses up to
// a memory-level-parallelism window, in-order cores block on every load,
// and branch mispredictions cost a pipeline refill (HATS's baseline BDFS
// suffers exactly there, Fig 17).
package cpu

import (
	"math"

	"tako/internal/energy"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

// Kind selects the core microarchitecture.
type Kind int

// Core kinds evaluated in Fig 24.
const (
	OutOfOrder Kind = iota
	InOrder
)

// Config describes a core.
type Config struct {
	Name              string
	Kind              Kind
	MLP               int     // outstanding independent loads (OOO window)
	IPC               float64 // non-memory instruction throughput
	MispredictPenalty sim.Cycle
}

// Goldmont returns the paper's baseline core (Table 3: OOO Goldmont).
func Goldmont() Config {
	return Config{Name: "goldmont-ooo", Kind: OutOfOrder, MLP: 8, IPC: 2, MispredictPenalty: 13}
}

// BigOOO returns a beefier core for the Fig 24 sweep.
func BigOOO() Config {
	return Config{Name: "big-ooo", Kind: OutOfOrder, MLP: 16, IPC: 4, MispredictPenalty: 16}
}

// LittleInOrder returns a small in-order core for the Fig 24 sweep.
func LittleInOrder() Config {
	return Config{Name: "little-inorder", Kind: InOrder, MLP: 1, IPC: 1, MispredictPenalty: 8}
}

// Core executes one software thread's operations on a tile.
type Core struct {
	H    *hier.Hierarchy
	Tile int

	cfg   Config
	meter *energy.Meter

	// Instrs counts committed instructions (loads/stores/atomics/
	// branches/compute); Mispredicts counts taken penalties.
	Instrs      uint64
	Mispredicts uint64

	// window holds the futures of the out-of-order loads in flight,
	// oldest first, at most MLP of them. They come from the kernel's
	// pool, and the window recycles each once it has retired its load.
	window []*sim.Future
}

// New builds a core on the given tile.
func New(h *hier.Hierarchy, tile int, cfg Config, meter *energy.Meter) *Core {
	if cfg.MLP < 1 {
		cfg.MLP = 1
	}
	if cfg.IPC <= 0 {
		cfg.IPC = 1
	}
	return &Core{H: h, Tile: tile, cfg: cfg, meter: meter, window: make([]*sim.Future, 0, cfg.MLP)}
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

func (c *Core) instr(n int) {
	c.Instrs += uint64(n)
	if c.meter != nil {
		c.meter.Add(energy.CoreInstr, uint64(n))
	}
}

// Compute executes n non-memory instructions.
func (c *Core) Compute(p *sim.Proc, n int) {
	if n <= 0 {
		return
	}
	c.instr(n)
	p.Sleep(sim.Cycle(math.Ceil(float64(n) / c.cfg.IPC)))
}

// Load performs a dependent load: the thread blocks until data returns.
func (c *Core) Load(p *sim.Proc, a mem.Addr) uint64 {
	c.instr(1)
	return c.H.Load(p, c.Tile, a)
}

// LoadHandle is an in-flight value-carrying asynchronous load. Value is
// valid once the core has retired the load: after Drain, or after MLP
// later LoadAsyncV calls.
type LoadHandle struct {
	Value uint64
}

// LoadAsyncV issues an independent load whose value is delivered through
// the returned handle — the OOO pattern for reductions over independent
// addresses (e.g., the decompression study's average loop). Out-of-order
// cores overlap up to MLP of these, each a hardware transaction no
// thread waits on (Hierarchy.LoadAsync); a full window first retires its
// oldest load. In-order cores execute them synchronously.
func (c *Core) LoadAsyncV(p *sim.Proc, a mem.Addr) *LoadHandle {
	c.instr(1)
	lh := &LoadHandle{}
	if c.cfg.Kind == InOrder {
		lh.Value = c.H.Load(p, c.Tile, a)
		return lh
	}
	if len(c.window) >= c.cfg.MLP {
		c.retire(p)
	}
	f := p.Kernel().GetFuture()
	c.H.LoadAsync(p, c.Tile, a, &lh.Value, f)
	c.window = append(c.window, f)
	return lh
}

// retire waits for the oldest load in the window, recycles its future
// and shifts the rest down in place.
func (c *Core) retire(p *sim.Proc) {
	f := c.window[0]
	p.Wait(f)
	p.Kernel().RecycleFuture(f)
	n := copy(c.window, c.window[1:])
	c.window[n] = nil
	c.window = c.window[:n]
}

// Drain waits for every outstanding asynchronous load.
func (c *Core) Drain(p *sim.Proc) {
	for len(c.window) > 0 {
		c.retire(p)
	}
}

// Store writes the word at a.
func (c *Core) Store(p *sim.Proc, a mem.Addr, v uint64) {
	c.instr(1)
	c.H.Store(p, c.Tile, a, v)
}

// LoadLine performs a vector load of the full line containing a,
// counting as one instruction.
func (c *Core) LoadLine(p *sim.Proc, a mem.Addr) mem.Line {
	c.instr(1)
	return c.H.LoadLine(p, c.Tile, a)
}

// StoreLine performs a vector store of a full line, one instruction.
func (c *Core) StoreLine(p *sim.Proc, a mem.Addr, line *mem.Line) {
	c.instr(1)
	c.H.StoreLine(p, c.Tile, a, line)
}

// StoreLineNT performs a non-temporal (streaming) full-line store that
// bypasses the private caches, one instruction.
func (c *Core) StoreLineNT(p *sim.Proc, a mem.Addr, line *mem.Line) {
	c.instr(1)
	c.H.StoreLineNT(p, c.Tile, a, line)
}

// AtomicAdd issues a relaxed remote atomic add (RMO, §8.1) — off the
// critical path on any core kind; the issue slot costs one instruction.
func (c *Core) AtomicAdd(p *sim.Proc, a mem.Addr, delta uint64) {
	c.instr(1)
	c.H.AtomicAdd(p, c.Tile, a, delta)
}

// AtomicRMO issues a relaxed remote memory operation with an arbitrary
// commutative operator (min/max enable label-propagation algorithms).
func (c *Core) AtomicRMO(p *sim.Proc, a mem.Addr, op hier.RMOOp, v uint64) {
	c.instr(1)
	c.H.AtomicRMO(p, c.Tile, a, op, v)
}

// AtomicAddSync performs a blocking atomic add at the shared level, for
// baselines without RMO support.
func (c *Core) AtomicAddSync(p *sim.Proc, a mem.Addr, delta uint64) {
	c.instr(1)
	c.H.AtomicAddSync(p, c.Tile, a, delta)
}

// AtomicAddLocal performs an ordinary atomic fetch-add in the local
// cache (baseline semantics: the line migrates to this core).
func (c *Core) AtomicAddLocal(p *sim.Proc, a mem.Addr, delta uint64) {
	c.instr(2)
	c.H.AtomicAddLocal(p, c.Tile, a, delta)
}

// AtomicRMOLocal performs an ordinary local atomic read-modify-write
// with the given commutative operator.
func (c *Core) AtomicRMOLocal(p *sim.Proc, a mem.Addr, op hier.RMOOp, v uint64) {
	c.instr(2)
	c.H.AtomicRMOLocal(p, c.Tile, a, op, v)
}

// AtomicExchange swaps the word at a (LL/SC-style local atomic, §8.2).
func (c *Core) AtomicExchange(p *sim.Proc, a mem.Addr, v uint64) uint64 {
	c.instr(2)
	return c.H.AtomicExchange(p, c.Tile, a, v)
}

// DrainRMOs waits for this tile's outstanding remote atomic adds.
func (c *Core) DrainRMOs(p *sim.Proc) {
	c.H.DrainRMOs(p, c.Tile)
}

// Branch executes a branch; mispredicted branches pay the pipeline
// refill penalty.
func (c *Core) Branch(p *sim.Proc, mispredicted bool) {
	c.instr(1)
	if mispredicted {
		c.Mispredicts++
		p.Sleep(c.cfg.MispredictPenalty)
	}
}
