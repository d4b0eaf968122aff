// Package hier models the tiled cache hierarchy of the täkō multicore
// (paper Fig 2, Table 3): per-tile L1d and private L2, a shared,
// inclusive, banked L3 interleaved across tiles, a directory for
// coherence between private domains, a mesh interconnect, and DRAM.
//
// täkō hooks: the hierarchy consults a Registry for Morph registrations
// and invokes a Runner (the tile engine) on misses, evictions, and
// writebacks of registered lines. Phantom lines are never written back
// below their registration level — they are handed to their callback and
// discarded (§4.3). Addresses are locked for the duration of a callback
// by pending-line futures that later accesses must wait on.
//
// Modeling approach: simulated threads call blocking methods (Load,
// Store, ...) from sim.Procs, and each access runs as a coherence
// transaction (txn.go), a chain of kernel continuations that translates
// the address in its first state and that the thread blocks on once.
// Asynchronous core loads (LoadAsync), remote memory operations and
// prefetches are transactions that no thread waits on.
// Latency is charged with sleeps and queueing (MSHRs, writeback buffers,
// DRAM bandwidth); functional state changes apply atomically between
// sleeps so data results are exact while timing is cycle-accounted.
package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/dram"
	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/noc"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/tlb"
	"tako/internal/trace"
)

// Level identifies where in the hierarchy a Morph is registered (§4.1).
type Level int

// Morph registration levels.
const (
	LevelNone    Level = iota
	LevelPrivate       // at the tile's private L2
	LevelShared        // at the shared L3
)

func (l Level) String() string {
	switch l {
	case LevelPrivate:
		return "PRIVATE"
	case LevelShared:
		return "SHARED"
	default:
		return "NONE"
	}
}

// CallbackKind identifies which callback a cache event triggers (Table 1).
type CallbackKind int

// Callback kinds.
const (
	CbMiss      CallbackKind = iota // onMiss: generate data for the address
	CbEviction                      // onEviction: handle clean eviction
	CbWriteback                     // onWriteback: handle dirty eviction
)

func (k CallbackKind) String() string {
	switch k {
	case CbMiss:
		return "onMiss"
	case CbEviction:
		return "onEviction"
	case CbWriteback:
		return "onWriteback"
	}
	return "?"
}

// Binding describes a Morph registration to the hierarchy.
type Binding struct {
	MorphID int
	Level   Level
	Phantom bool
	Region  mem.Region
	Tile    int // the registering tile
	// HasMiss/HasEviction/HasWriteback say which callbacks the Morph
	// implements, so the hierarchy skips scheduling empty ones.
	HasMiss, HasEviction, HasWriteback bool
}

// Registry resolves addresses to Morph bindings. Implemented by the core
// täkō package; a nil registry means no Morphs (baseline hierarchy).
type Registry interface {
	Binding(a mem.Addr) (Binding, bool)
	// Protected is the onReplacement extension (§4.5): victim selection
	// avoids lines for which it reports true, unless no other candidate
	// exists. It is asked for every candidate way of every L2 and L3
	// victim choice, so it must be cheap when no Morph gives a hint.
	Protected(tag mem.Addr) bool
}

// Runner executes callbacks on a tile's engine. Implemented by the
// engine/core packages.
type Runner interface {
	// Run schedules a callback. The returned accepted future completes
	// when the engine's callback buffer admits the request (freeing
	// the cache's writeback-buffer entry, §5.2); done completes when
	// the callback finishes, after accepted. For CbMiss the callback
	// fills line; for evictions line holds the evicted data.
	//
	// The caller owns both futures, which may come from the kernel's
	// pool (Kernel.GetFuture): once it has resumed past done it
	// recycles each with Kernel.RecycleFuture (a no-op for unpooled
	// ones) and keeps no reference. The runner never touches either
	// after completing done; a runner may return one unpooled future
	// as both.
	Run(tile int, kind CallbackKind, b Binding, addr mem.Addr, line *mem.Line) (accepted, done *sim.Future)
	// Saturated reports whether the tile's callback buffer is full, in
	// which case eviction prefers callback-free victims (§5.2).
	Saturated(tile int) bool
}

// Config describes the hierarchy geometry and timing (defaults: Table 3).
type Config struct {
	Tiles int

	L1Size, L1Ways             int
	L2Size, L2Ways             int
	L3BankSize, L3Ways         int
	EngineL1Size, EngineL1Ways int

	L1Latency           sim.Cycle
	L2TagLat, L2DataLat sim.Cycle
	L3TagLat, L3DataLat sim.Cycle

	MSHRsPerTile    int
	WBBufPerTile    int
	RMOLimit        int // outstanding remote memory ops per tile
	PrefetchDegree  int
	PrefetchStreams int

	// NewPolicy builds the replacement policy for each cache; nil
	// means trrîp everywhere.
	NewPolicy func() cache.Policy

	// FreshChecks enables per-access coherence-freshness assertions
	// (debugcheck.go); expensive, intended for tests and -verify runs.
	FreshChecks bool
	// SelfCheckEvery > 0 runs the full hierarchy-wide invariant checker
	// (CheckInvariants) every that many state-changing events.
	SelfCheckEvery int

	// Attribution arms transaction-level latency attribution (attr.go):
	// per-state dwell-cycle histograms on every txn transition, plus —
	// when SlowestK > 0 — a bounded ring of the K slowest demand
	// accesses with their full state timelines. Never changes timing or
	// architectural counts; off by default and free when off.
	Attribution bool
	SlowestK    int

	NoC  noc.Config
	DRAM dram.Config

	RTLB tlb.Config
}

// DefaultConfig returns the Table 3 system for the given tile count,
// with every check and attribution off.
func DefaultConfig(tiles int) Config {
	return Config{
		Tiles:           tiles,
		L1Size:          32 * 1024,
		L1Ways:          8,
		L2Size:          128 * 1024,
		L2Ways:          8,
		L3BankSize:      512 * 1024,
		L3Ways:          16,
		EngineL1Size:    8 * 1024,
		EngineL1Ways:    8,
		L1Latency:       1,
		L2TagLat:        2,
		L2DataLat:       4,
		L3TagLat:        3,
		L3DataLat:       5,
		MSHRsPerTile:    16,
		WBBufPerTile:    8,
		RMOLimit:        16,
		PrefetchDegree:  4,
		PrefetchStreams: 8,
		NoC:             noc.DefaultConfig(tiles),
		DRAM:            dram.DefaultConfig(),
		RTLB:            tlb.DefaultRTLBConfig(),
	}
}

// ScaledConfig shrinks caches by factor (≥1) while keeping geometry
// legal, for experiments that need data ≫ cache at small workload scales.
func ScaledConfig(tiles, factor int) Config {
	c := DefaultConfig(tiles)
	shrink := func(size, ways int) int {
		s := size / factor
		min := ways * mem.LineSize
		// Round down to a power-of-two multiple of the way size.
		sets := s / min
		p := 1
		for p*2 <= sets {
			p *= 2
		}
		if sets < 1 {
			p = 1
		}
		return p * min
	}
	c.L1Size = shrink(c.L1Size, c.L1Ways)
	c.L2Size = shrink(c.L2Size, c.L2Ways)
	c.L3BankSize = shrink(c.L3BankSize, c.L3Ways)
	// The engine L1d is part of the fixed engine microarchitecture
	// (Table 2), not the scaled cache hierarchy.
	return c
}

func log2(n int) uint {
	var s uint
	for 1<<(s+1) <= n {
		s++
	}
	return s
}

// stream is one detected prefetch stream (Table 3: strided prefetcher at
// the L2).
type stream struct {
	lastLine   mem.Addr
	stride     int64
	confidence int
	lastUse    uint64
}

// tile bundles one tile's private state.
type tile struct {
	id int

	l1  *cache.Cache // core L1d
	el1 *cache.Cache // engine L1d
	l2  *cache.Cache // private L2
	l3  *cache.Cache // this tile's bank of the shared L3

	mshr  *sim.Semaphore
	wbbuf *sim.Semaphore
	rmo   *sim.Semaphore

	// pending serializes private-domain line operations: in-flight L2
	// fills and callback locks. Accesses finding an entry wait, then
	// retry.
	pending lockTable
	// l3pending serializes home-bank operations on a line.
	l3pending lockTable
	// l3Busy is the preallocated victim-selection predicate handed to
	// the L3 bank: a line whose home-line lock is held is mid
	// transaction and must not be victimized, or the eviction callback
	// runs on a snapshot the transaction is about to supersede.
	l3Busy func(tag mem.Addr) bool

	rmoInflight *sim.WaitGroup

	streams          []stream
	streamTick       uint64
	prefetchInflight int

	rtlb *tlb.TLB
	dtlb *tlb.TLB

	// cbInflight tracks eviction/writeback callbacks spawned for this
	// tile's caches, so flushes can block until they complete (§4.4).
	// FlushRegion waits on each tile's group in turn.
	cbInflight *sim.WaitGroup
}

// Hierarchy is the full modeled memory system.
type Hierarchy struct {
	K     *sim.Kernel
	Mesh  *noc.Mesh
	DRAM  *dram.DRAM
	Meter *energy.Meter

	cfg      Config
	registry Registry
	runner   Runner
	tiles    []*tile
	dir      dirTable

	// tracer records structured events when attached (nil = off).
	tracer *trace.Tracer

	// obs receives commit-point notifications (observer.go); nil = off.
	obs Observer
	// eventCount drives the periodic self-check (Config.SelfCheckEvery).
	eventCount uint64

	// homeLog is the freshness-assertion history (debugcheck.go), per
	// hierarchy so concurrent tests cannot cross-contaminate.
	homeLog map[mem.Addr][]string

	// Metrics is the typed registry of named event counts, gauges, and
	// histograms (hits, misses, callbacks, queue depths...).
	Metrics *stats.Registry
	// hot caches pre-resolved Metrics handles for hot-path increments.
	hot hotMetrics
	// comp pre-renders per-tile trace component labels.
	comp componentNames
	// LoadLat records demand-load latencies from cores (Fig 17).
	LoadLat stats.Dist

	// protectedFn is the registry's victim-avoid hook (Registry.Protected),
	// bound once so insert paths don't allocate a closure per fill; nil
	// without a registry.
	protectedFn func(tag mem.Addr) bool

	// attr is the armed latency-attribution state (attr.go); nil when
	// Config.Attribution is off, so the hot path pays one pointer check.
	attr *txnAttr

	// ff is the analytical fast-forward engine (ff.go); nil when off, so
	// the access hot path pays one pointer check.
	ff *ffState

	// txnPool recycles coherence-transaction objects (txn.go), so the
	// per-access hot path stays allocation-free; wbPool and evictPool
	// recycle the eviction side's continuations (writeback.go).
	txnPool   []*txn
	wbPool    []*wbTiming
	evictPool []*evictCB
	// txnCounts is the transaction state-machine coverage table:
	// observed transitions per (kind, from, to).
	txnCounts txnCountTable
}

// New builds a hierarchy. registry and runner may be nil (no Morphs).
func New(k *sim.Kernel, cfg Config, meter *energy.Meter, registry Registry, runner Runner) *Hierarchy {
	if cfg.Tiles <= 0 {
		panic("hier: need at least one tile")
	}
	newPolicy := cfg.NewPolicy
	if newPolicy == nil {
		newPolicy = func() cache.Policy { return cache.NewTRRIP() }
	}
	h := &Hierarchy{
		K:        k,
		Mesh:     noc.NewMesh(cfg.NoC, meter),
		DRAM:     dram.New(k, cfg.DRAM, mem.NewMemory(), meter),
		Meter:    meter,
		cfg:      cfg,
		registry: registry,
		runner:   runner,
		homeLog:  make(map[mem.Addr][]string),
		Metrics:  stats.NewRegistry(),
		comp:     newComponentNames(cfg.Tiles),
	}
	h.hot.resolve(h.Metrics)
	if cfg.Attribution {
		h.attr = newTxnAttr(h.Metrics, cfg.SlowestK)
	}
	h.DRAM.AttachMetrics(h.Metrics)
	h.Mesh.AttachMetrics(h.Metrics)
	if registry != nil {
		h.protectedFn = registry.Protected
	}
	// Probe-length distributions for the open-addressed tables (observed
	// on insert): degraded hashing shows up here before it shows up in
	// wall-clock time.
	h.dir.tbl.SetProbeStats(h.Metrics.Histogram("dir.probe.len"))
	mshrProbes := h.Metrics.Histogram("mshr.probe.len")
	homeProbes := h.Metrics.Histogram("mshr.home.probe.len")
	bankShift := log2(cfg.Tiles)
	for i := 0; i < cfg.Tiles; i++ {
		h.tiles = append(h.tiles, h.buildTile(i, newPolicy, mshrProbes, homeProbes, bankShift))
	}
	return h
}

// buildTile constructs one tile with all of its kernel-bound resources
// (semaphores, lock tables, wait groups) on the hierarchy's kernel.
func (h *Hierarchy) buildTile(i int, newPolicy func() cache.Policy, mshrProbes, homeProbes *stats.Histogram, bankShift uint) *tile {
	cfg, k := h.cfg, h.K
	t := &tile{
		id: i,
		l1: cache.New(cache.Config{
			Name: fmt.Sprintf("l1.%d", i), SizeBytes: cfg.L1Size, Ways: cfg.L1Ways,
			Policy: newPolicy(),
		}),
		el1: cache.New(cache.Config{
			Name: fmt.Sprintf("el1.%d", i), SizeBytes: cfg.EngineL1Size, Ways: cfg.EngineL1Ways,
			Policy: newPolicy(),
		}),
		l2: cache.New(cache.Config{
			Name: fmt.Sprintf("l2.%d", i), SizeBytes: cfg.L2Size, Ways: cfg.L2Ways,
			Policy: newPolicy(),
		}),
		l3: cache.New(cache.Config{
			Name: fmt.Sprintf("l3.%d", i), SizeBytes: cfg.L3BankSize, Ways: cfg.L3Ways,
			IndexShift: bankShift, Policy: newPolicy(),
		}),
		mshr:        sim.NewSemaphore(k, cfg.MSHRsPerTile),
		wbbuf:       sim.NewSemaphore(k, cfg.WBBufPerTile),
		rmo:         sim.NewSemaphore(k, max(cfg.RMOLimit, 1)),
		rmoInflight: sim.NewWaitGroup(k),
		cbInflight:  sim.NewWaitGroup(k),
		rtlb:        tlb.New(cfg.RTLB),
		// 2 MB pages: täkō's phantom ranges make huge pages
		// easy (§6), and the workloads assume them throughout.
		dtlb: tlb.New(tlb.Config{
			Name: fmt.Sprintf("dtlb.%d", i), Entries: 64, PageBits: 21,
			HitLatency: 0, WalkLatency: 30,
		}),
	}
	t.pending.init(k, fmt.Sprintf("pending@%d", i))
	t.l3pending.init(k, fmt.Sprintf("home@%d", i))
	t.l3Busy = func(tag mem.Addr) bool { return t.l3pending.locked(tag) }
	t.pending.tbl.SetProbeStats(mshrProbes)
	t.l3pending.tbl.SetProbeStats(homeProbes)
	return t
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Tiles returns the tile count.
func (h *Hierarchy) Tiles() int { return h.cfg.Tiles }

// HomeTile returns the L3 bank (tile) owning address a's line.
func (h *Hierarchy) HomeTile(a mem.Addr) int {
	return int((uint64(a) >> mem.LineShift) % uint64(h.cfg.Tiles))
}

// DRAMAccesses returns total DRAM accesses (reads + writes).
func (h *Hierarchy) DRAMAccesses() uint64 { return h.DRAM.Accesses() }

// RTLB returns the tile engine's reverse TLB (for sensitivity reports).
func (h *Hierarchy) RTLB(tile int) *tlb.TLB { return h.tiles[tile].rtlb }

// CheckMorphInvariants verifies the deadlock-avoidance invariant on every
// cache (§5.2); property tests call it after workloads.
func (h *Hierarchy) CheckMorphInvariants() error {
	for _, t := range h.tiles {
		for _, c := range []*cache.Cache{t.l2, t.l3} {
			if err := c.CheckMorphInvariant(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AttachTracer wires a structured event tracer into the hierarchy (and
// its DRAM, whose controllers emit transfer spans); nil disables tracing.
func (h *Hierarchy) AttachTracer(t *trace.Tracer) {
	h.tracer = t
	h.DRAM.AttachTracer(t)
}

// emit records a trace event at the current cycle (no-op without an
// attached tracer).
func (h *Hierarchy) emit(component, kind, detail string) {
	h.tracer.Emit(uint64(h.K.Now()), component, kind, detail)
}
