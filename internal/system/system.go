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
	"tako/internal/noc"
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
	// Sharded hosts the machine on a sim.Sharded engine — one shard (its
	// own kernel and clock) per tile, cross-tile interactions carried by
	// lookahead-respecting messages — for real parallel speedup on a
	// single simulation. Baseline and täkō machines both shard: the Morph
	// registry is partitioned per tile, engines run on their tile's shard
	// kernel, and registration/flush/persist traffic rides the message
	// protocol. Sharded execution changes the timing model: cross-tile
	// operations pay real message round trips, so cycle counts differ
	// from the classic engine. Results are still byte-identical across
	// ShardWorkers values (and to the sequenced schedule), which is what
	// the determinism battery pins.
	Sharded bool
	// ShardWorkers is the worker-goroutine count for a Sharded run.
	// ≤ 1 runs the deterministic sequenced schedule inline; n ≥ 2 runs n
	// workers with identical simulated results. Ignored unless Sharded.
	ShardWorkers int
	// FastForward, when > 0, runs the machine's first N core memory
	// accesses through the analytical fast-forward engine (hier/ff.go):
	// functionally exact execution against the backing store feeding a
	// reuse-distance collector, then warm-state seeding when the event
	// kernel switches on. Classic-kernel baseline (NoTako) machines
	// only: building a täkō or sharded machine with it set panics with
	// a message naming the fix, and New keeps such a machine off the
	// sharded engine. Warmup timing is
	// estimated rather than simulated, so cycle counts differ from a
	// full run — default off, and fast-forwarded configurations carry
	// their own goldens.
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
	K     *sim.Kernel  // nil on a sharded build (each shard owns a kernel)
	Sh    *sim.Sharded // non-nil on a sharded build
	Meter *energy.Meter
	Space *mem.Space
	Tako  *core.Tako
	H     *hier.Hierarchy
	E     *engine.Engines
	Cores []*cpu.Core

	workers int // Sharded run's worker count (≤ 1: sequenced)

	// Capture state (capture.go): set when a process-wide observability
	// capture was armed before this System was built.
	captured bool
	capPid   int
}

// New builds and wires a System, first resolving the process-wide
// Options into cfg, then building it with Build.
func New(cfg Config) *System {
	if o := CurrentOptions(); !cfg.Sharded && o.Sharded && cfg.FastForward == 0 {
		// Sharded applies to any machine — baseline or täkō — that did not
		// ask for it itself, except under fast-forward warmup, which needs
		// the classic kernel.
		cfg.Sharded = true
		if cfg.ShardWorkers == 0 {
			cfg.ShardWorkers = o.ShardWorkers
		}
	}
	return Build(cfg)
}

// Build assembles exactly the machine cfg names — the classic
// single-kernel engine, or the tile-sharded one when cfg.Sharded — with
// only the observability Options (Verify, Attribution, SlowestK) applied:
// the engine Options never reach it. Harnesses whose
// result depends on the engine (the engine comparison, the interleaving
// explorer's trace runs) build with it.
func Build(cfg Config) *System {
	CurrentOptions().observe(&cfg.Hier, cfg.Sharded)
	if cfg.Sharded {
		return newSharded(cfg)
	}
	k := sim.NewKernel()
	meter := energy.NewMeter()
	space := mem.NewSpace()
	s := &System{K: k, Meter: meter, Space: space}

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
		s.H.EnableFastForward(cfg.FastForward)
	}
	for i := 0; i < cfg.Tiles; i++ {
		s.Cores = append(s.Cores, cpu.New(s.H, i, cfg.Core, meter))
	}
	s.attachCapture()
	return s
}

// newSharded assembles a machine hosted on a sim.Sharded engine: one
// shard per tile, each with its own kernel and clock, synchronized in
// conservative lookahead-wide epochs. The hierarchy's cross-tile paths
// (directory actions, home-line locks, snoops, remote DRAM) run as
// messages between shards; everything tile-private — cores, private
// caches, MSHRs, the transaction state machine — runs undisturbed on its
// tile's shard. täkō machines shard too: the Morph registry keeps one
// view per tile, engines run on their tile's shard kernel, and
// registration broadcasts, flushes, and persists ride the same message
// protocol.
func newSharded(cfg Config) *System {
	if cfg.FastForward > 0 {
		panic("system: a sharded machine cannot fast-forward (the analytical warmup replays on the " +
			"classic global-clock kernel); clear Sharded, or clear FastForward for a full sharded run")
	}
	meter := energy.NewMeter()
	space := mem.NewSpace()
	// The epoch width is the mesh's minimum cross-tile latency: no
	// message can arrive sooner, so shards may run that far apart.
	lookahead := noc.NewMesh(cfg.Hier.NoC, nil).MinCrossTileLatency()
	eng := sim.NewSharded(cfg.Tiles, lookahead)
	s := &System{Sh: eng, Meter: meter, Space: space, workers: cfg.ShardWorkers}
	if cfg.NoTako {
		s.H = hier.NewSharded(eng, cfg.Hier, meter, nil, nil)
	} else {
		s.Tako = core.NewSharded(eng, space)
		s.E = engine.NewSharded(eng, cfg.Engine, cfg.Tiles, s.Tako, meter)
		s.H = hier.NewSharded(eng, cfg.Hier, meter, s.Tako, s.E)
		s.E.AttachHierarchy(s.H)
		s.Tako.Attach(s.H, s.E)
	}
	for i := 0; i < cfg.Tiles; i++ {
		s.Cores = append(s.Cores, cpu.New(s.H, i, cfg.Core, meter))
	}
	s.attachCapture()
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

// Go spawns a software thread on the given tile's core. On a sharded
// build the thread runs on its tile's shard kernel.
func (s *System) Go(tile int, name string, fn func(p *sim.Proc, c *cpu.Core)) {
	c := s.Cores[tile]
	run := func(p *sim.Proc) { fn(p, c) }
	if s.Sh != nil {
		s.Sh.Shard(tile).K.Go(fmt.Sprintf("%s@%d", name, tile), run)
		return
	}
	s.K.Go(fmt.Sprintf("%s@%d", name, tile), run)
}

// Barrier returns a rendezvous for n software threads that works on
// either engine: a classic kernel barrier, or a message-passing barrier
// homed on shard 0 of a sharded build, whose messages take the mesh's
// minimum cross-tile latency. Both sides satisfy
// sim.Rendezvous (Arrive blocks until all n arrived).
func (s *System) Barrier(n int) sim.Rendezvous {
	if s.Sh != nil {
		return sim.NewShardedBarrier(s.Sh, 0, n, s.H.Mesh.MinCrossTileLatency())
	}
	return sim.NewBarrier(s.K, n)
}

// RunUntil advances the machine to the given cycle at most and returns
// with the event queues intact; crash harnesses (§8.3) use it to cut a
// run at a precise point. On a sharded build every shard clock reaches
// limit (the epoch schedule stays deterministic at any worker count).
func (s *System) RunUntil(limit sim.Cycle) {
	if s.Sh != nil {
		s.Sh.RunUntil(limit, s.workers)
		return
	}
	s.K.RunUntil(limit)
}

// Run executes until the machine quiesces and returns the cycle count.
// It panics if any thread is still blocked (a modeling deadlock). On a
// sharded build the returned count is the maximum shard clock, and
// Config.ShardWorkers picks between the sequenced reference schedule
// (≤ 1) and parallel workers (≥ 2) — simulated results are identical.
func (s *System) Run() sim.Cycle {
	if s.Sh != nil {
		if s.workers > 1 {
			s.Sh.Run(s.workers)
		} else {
			s.Sh.RunSequenced()
		}
		if blocked := s.Sh.Blocked(); len(blocked) > 0 {
			panic(fmt.Sprintf("system: deadlocked processes after run: %v", blocked))
		}
		s.H.FinishStats()
		s.Sh.Release()
		return s.Cycles()
	}
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

// Cycles returns the current simulated time: the kernel clock, or the
// maximum across shard clocks on a sharded build.
func (s *System) Cycles() sim.Cycle {
	if s.Sh == nil {
		return s.K.Now()
	}
	var now sim.Cycle
	for i := 0; i < s.Sh.Shards(); i++ {
		if n := s.Sh.Shard(i).K.Now(); n > now {
			now = n
		}
	}
	return now
}

// KernelEvents returns the total dispatched event count, summed across
// shard kernels on a sharded build.
func (s *System) KernelEvents() uint64 {
	if s.Sh == nil {
		return s.K.Events()
	}
	var n uint64
	for i := 0; i < s.Sh.Shards(); i++ {
		n += s.Sh.Shard(i).K.Events()
	}
	return n
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
