// Package system assembles a complete täkō machine: event kernel, energy
// meter, address space, cache hierarchy, engines, cores, and the täkō
// runtime, wired together per Table 3. Experiments and examples build a
// System, spawn software threads on its cores, and run the kernel.
package system

import (
	"fmt"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/energy"
	"tako/internal/engine"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/trace"
)

// Config selects the machine configuration.
type Config struct {
	Tiles  int
	Hier   hier.Config
	Engine engine.Config
	Core   cpu.Config
	// NoTako disables Morph support entirely (baseline machine): the
	// hierarchy runs with no registry or engines.
	NoTako bool
	// FastForward, when > 0, runs the machine's first N core memory
	// accesses through the analytical fast-forward engine (hier/ff.go):
	// functionally exact execution against the backing store feeding a
	// reuse-distance collector, then warm-state seeding when the event
	// kernel switches on. Baseline (NoTako) machines only: building a
	// täkō machine with it set panics with a message naming the fix.
	// Warmup timing is estimated rather than simulated, so cycle counts
	// differ from a full run — default off, and fast-forwarded
	// configurations carry their own goldens.
	FastForward uint64
}

// Default returns the paper's Table 3 machine with the given tile count.
func Default(tiles int) Config {
	return Config{
		Tiles:  tiles,
		Hier:   hier.DefaultConfig(tiles),
		Engine: engine.DefaultConfig(),
		Core:   cpu.Goldmont(),
	}
}

// Scaled returns the Table 3 machine with caches shrunk by factor, for
// small-scale experiments that need data ≫ cache.
func Scaled(tiles, factor int) Config {
	c := Default(tiles)
	c.Hier = hier.ScaledConfig(tiles, factor)
	return c
}

// System is an assembled machine.
type System struct {
	K     *sim.Kernel
	Meter *energy.Meter
	Space *mem.Space
	Tako  *core.Tako
	H     *hier.Hierarchy
	E     *engine.Engines
	Cores []*cpu.Core

	// Capture state (capture.go): set when a run window was armed
	// before this System was built.
	captured bool
	capPid   int
}

// New builds and wires the machine cfg names. A machine built while a
// run window is armed joins it: the window's Options (Verify,
// Attribution, SlowestK) are armed on its hierarchy, and it gets a pid,
// a tracer and the window's fast-forward gauges.
func New(cfg Config) *System {
	k := sim.NewKernel()
	meter := energy.NewMeter()
	space := mem.NewSpace()
	s := &System{K: k, Meter: meter, Space: space}
	w := s.joinCapture()
	var ff *hier.FFProgress
	if w != nil {
		w.cfg.Options.observe(&cfg.Hier)
		ff = &w.ff
	}

	if cfg.NoTako {
		s.H = hier.New(k, cfg.Hier, meter, nil, nil)
	} else {
		s.Tako = core.New(k, space)
		s.E = engine.New(k, cfg.Engine, cfg.Tiles, s.Tako, meter)
		s.H = hier.New(k, cfg.Hier, meter, s.Tako, s.E)
		s.E.AttachHierarchy(s.H)
		s.Tako.Attach(s.H, s.E)
	}
	if cfg.FastForward > 0 {
		s.H.EnableFastForward(cfg.FastForward, ff)
	}
	for i := 0; i < cfg.Tiles; i++ {
		s.Cores = append(s.Cores, cpu.New(s.H, i, cfg.Core, meter))
	}
	s.attachTracer(w)
	return s
}

// Ops returns the run's architectural operation count — committed core
// instructions, engine instructions, and DRAM line transfers. Unlike
// cycle counts, this is insensitive to pure timing-model changes, which
// makes it the quantity CI gates on.
func (s *System) Ops() uint64 {
	return s.TotalInstrs() + s.EngineInstrs() + s.H.DRAMAccesses()
}

// Alloc reserves a real region and returns it.
func (s *System) Alloc(name string, size uint64) mem.Region {
	return s.Space.Alloc(name, size)
}

// Go spawns a software thread on the given tile's core.
func (s *System) Go(tile int, name string, fn func(p *sim.Proc, c *cpu.Core)) {
	c := s.Cores[tile]
	s.K.Go(fmt.Sprintf("%s@%d", name, tile), func(p *sim.Proc) { fn(p, c) })
}

// Barrier returns a rendezvous for n software threads: Arrive blocks
// until all n arrived.
func (s *System) Barrier(n int) *sim.Barrier { return sim.NewBarrier(s.K, n) }

// RunUntil advances the machine to the given cycle at most and returns
// with the event queue intact; crash harnesses (§8.3) use it to cut a
// run at a precise point.
func (s *System) RunUntil(limit sim.Cycle) { s.K.RunUntil(limit) }

// Run executes until the machine quiesces and returns the cycle count.
// It panics if any thread is still blocked (a modeling deadlock).
func (s *System) Run() sim.Cycle {
	s.K.Run()
	if blocked := s.K.Blocked(); len(blocked) > 0 {
		panic(fmt.Sprintf("system: deadlocked processes after run: %v", blocked))
	}
	// Settle fast-forward accounting for workloads that finished inside
	// the warmup window (no-op when off or already switched over).
	s.H.FinishFF()
	// Kill the kernel's pooled proc coroutines: report generation runs
	// thousands of systems in one process, and the parked goroutines of
	// finished kernels would otherwise accumulate.
	s.K.Release()
	return s.K.Now()
}

// Trace attaches (and returns) a structured event tracer recording the
// given event kinds ("cb.*", "flush.*", ... — empty records everything).
func (s *System) Trace(capacity int, kinds ...string) *trace.Tracer {
	tr := trace.New(capacity)
	tr.Filter(kinds...)
	s.H.AttachTracer(tr)
	return tr
}

// TotalInstrs sums committed instructions across cores.
func (s *System) TotalInstrs() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Instrs
	}
	return n
}

// EngineInstrs sums instructions executed on engines (0 without täkō).
func (s *System) EngineInstrs() uint64 {
	if s.E == nil {
		return 0
	}
	return s.E.TotalStats().Instrs
}

// Mispredicts sums branch mispredictions across cores.
func (s *System) Mispredicts() uint64 {
	var n uint64
	for _, c := range s.Cores {
		n += c.Mispredicts
	}
	return n
}
