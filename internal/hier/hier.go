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
// Store, ...) from sim.Procs. Latency is charged with sleeps and queueing
// (MSHRs, writeback buffers, DRAM bandwidth); functional state changes
// apply atomically between sleeps so data results are exact while timing
// is cycle-accounted.
package hier

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/dram"
	"tako/internal/energy"
	"tako/internal/flat"
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
	// HasMiss/HasEviction/HasWriteback say which callbacks the Morph
	// implements, so the hierarchy skips scheduling empty ones.
	HasMiss, HasEviction, HasWriteback bool
	// Protected is the onReplacement extension (§4.5): when non-nil,
	// victim selection avoids lines for which it returns true, unless
	// no other candidate exists.
	Protected func(mem.Addr) bool
}

// Registry resolves addresses to Morph bindings. Implemented by the core
// täkō package; a nil registry means no Morphs (baseline hierarchy).
// Lookups name the tile doing the asking: on a sharded build the registry
// is partitioned per tile (each shard reads only its own view, updated by
// registration broadcast messages), so the tile parameter selects the
// view whose contents are guaranteed visible to the calling shard.
type Registry interface {
	Binding(tile int, a mem.Addr) (Binding, bool)
}

// Runner executes callbacks on a tile's engine. Implemented by the
// engine/core packages.
type Runner interface {
	// Run schedules a callback. The returned accepted future completes
	// when the engine's callback buffer admits the request (freeing
	// the cache's writeback-buffer entry, §5.2); done completes when
	// the callback finishes. For CbMiss the callback fills line; for
	// evictions line holds the evicted data.
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
	// K is the kernel this tile's processes and futures live on: the
	// hierarchy-wide kernel on a classic build, the tile's own shard
	// kernel on a sharded build (sharded.go). Tile-affine spawns
	// (prefetches, writeback timing, RMO issue) go through it so they
	// stay on the tile's shard.
	K *sim.Kernel
	// shard is the tile's mailbox endpoint on a sharded build (nil on a
	// classic kernel): all cross-tile effects leave through it.
	shard *sim.Shard

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

	// rmoName, evictCBName and l3EvictCBName pre-render the names of
	// this tile's hot spawns (RMOs, private and home eviction callbacks)
	// so a spawn formats no string.
	rmoName, evictCBName, l3EvictCBName string

	streams          []stream
	streamTick       uint64
	prefetchInflight int

	rtlb *tlb.TLB
	dtlb *tlb.TLB

	// txnPool recycles this tile's coherence-transaction objects
	// (txn.go). Pooling per tile (rather than per hierarchy) keeps the
	// pool single-shard on a sharded build, so getTxn/putTxn never
	// synchronize.
	txnPool []*txn
	// txnCounts is this tile's slice of the transaction state-machine
	// coverage table; TxnCoverage sums across tiles.
	txnCounts txnCountTable
	// loadLat records demand-load latencies issued from this tile;
	// merged into Hierarchy.LoadLat when the run finishes (FinishStats).
	// Classic builds observe into Hierarchy.LoadLat directly.
	loadLat stats.Dist

	// cbInflight tracks eviction/writeback callbacks spawned on this
	// tile's kernel, so flushes can block until they complete (§4.4).
	// Per tile (rather than per hierarchy) because a WaitGroup is bound
	// to one kernel: on a sharded build each tile's callbacks must be
	// awaited from that tile's own shard.
	cbInflight *sim.WaitGroup
	// protectedFn is this tile's pre-bound victim-avoid hook (nil
	// without a registry): it resolves §4.5 Protected predicates through
	// the tile's own registry view.
	protectedFn func(tag mem.Addr) bool
	// slow is this tile's slow-access ring on a sharded build (attr.go):
	// demand accesses finish on their issuing tile's shard, so per-tile
	// rings need no locking and merge deterministically at run end.
	slow slowRing

	// Sharded-mode state (sharded.go); unused on a classic build.
	//
	// owned is the tile's local view of which lines it holds with write
	// permission: set when a write grant arrives from home, cleared by
	// invalidation/downgrade handlers and on last-copy drops. It stands
	// in for the classic hasExclusive directory peek, which a remote
	// tile cannot perform under message passing.
	owned flat.Table[struct{}]
	// reqs pools homeReq message payloads.
	reqs []*homeReq
	// invPool recycles back-invalidation reply scratch (home side).
	invPool [][]invReply
	// homeNames pre-renders home-transaction proc names per kind so
	// arriving requests don't format a string per message.
	homeNames [nTxnKinds]string
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
	// dirs banks the directory per home tile on a sharded build (nil
	// classically): each bank is touched only from its home shard, so the
	// open-addressed tables never need locking. Use dirT(la), not the
	// fields, to resolve a line's directory.
	dirs []dirTable

	// tracer records structured events when attached (nil = off). On a
	// sharded build it is the merge target: each tile records into its
	// own fork (tracers) and FinishStats merges the forks into tracer in
	// canonical (cycle, shard, seq) order.
	tracer *trace.Tracer
	// tracers holds one tracer fork per tile on a sharded build (nil
	// classically, and when tracing is off).
	tracers []*trace.Tracer

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

	// Pre-bound spawn bodies for the hot asynchronous paths (prefetch
	// issue, writeback timing): built once in New so Kernel.GoArgs sites
	// don't allocate a closure per event. The victim-avoid hook lives per
	// tile (tile.protectedFn) so it reads the tile's own registry view.
	prefetchFn func(p *sim.Proc, a0, a1 uint64)
	wbTimingFn func(p *sim.Proc, a0, a1 uint64)

	// attr is the armed latency-attribution state (attr.go); nil when
	// Config.Attribution is off, so the hot path pays one pointer check.
	attr *txnAttr

	// ff is the analytical fast-forward engine (ff.go); nil when off, so
	// the access hot path pays one pointer check.
	ff *ffState

	// Sharded-mode state (sharded.go). sharded selects the
	// message-passing cross-tile protocol: each tile's state machine
	// runs on its own shard kernel and all cross-tile effects travel as
	// Sharded mailbox messages. eng is the engine hosting the shards.
	// K is nil on a sharded build — every path must use a tile kernel
	// or the running proc's kernel.
	sharded bool
	eng     *sim.Sharded
	// drams holds one DRAM controller instance per home tile on a
	// sharded build (each home's controllers must live on that home's
	// shard kernel); they share one concurrent mem.Memory. Classic
	// builds leave it nil and use DRAM. DRAM aliases drams[0] sharded
	// so Store()/tracer accessors keep working.
	drams []*dram.DRAM
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
	h.prefetchFn = func(p *sim.Proc, a0, a1 uint64) {
		h.access(p, int(a0), mem.Addr(a1), accessOpts{prefetch: true})
		h.tiles[a0].prefetchInflight--
	}
	h.wbTimingFn = func(p *sim.Proc, a0, a1 uint64) {
		t := h.tiles[a0]
		t.wbbuf.Acquire(p)
		p.Sleep(h.Mesh.Transfer(int(a0), int(a1), mem.LineSize))
		t.wbbuf.Release()
	}
	// Probe-length distributions for the open-addressed tables (observed
	// on insert): degraded hashing shows up here before it shows up in
	// wall-clock time.
	h.dir.tbl.SetProbeStats(h.Metrics.Histogram("dir.probe.len"))
	mshrProbes := h.Metrics.Histogram("mshr.probe.len")
	homeProbes := h.Metrics.Histogram("mshr.home.probe.len")
	bankShift := log2(cfg.Tiles)
	for i := 0; i < cfg.Tiles; i++ {
		h.tiles = append(h.tiles, h.buildTile(k, i, newPolicy, mshrProbes, homeProbes, bankShift))
	}
	return h
}

// buildTile constructs one tile with all of its kernel-bound resources
// (semaphores, lock tables, wait groups) on k: the hierarchy-wide kernel
// on a classic build, the tile's own shard kernel on a sharded one.
func (h *Hierarchy) buildTile(k *sim.Kernel, i int, newPolicy func() cache.Policy, mshrProbes, homeProbes *stats.Histogram, bankShift uint) *tile {
	cfg := h.cfg
	t := &tile{
		id: i,
		K:  k,
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
	t.rmoName = fmt.Sprintf("rmo@%d", i)
	t.evictCBName = fmt.Sprintf("evict-cb@%d", i)
	t.l3EvictCBName = fmt.Sprintf("l3evict-cb@%d", i)
	t.pending.init(k, fmt.Sprintf("pending@%d", i))
	t.l3pending.init(k, fmt.Sprintf("home@%d", i))
	t.l3Busy = func(tag mem.Addr) bool { return t.l3pending.locked(tag) }
	t.pending.tbl.SetProbeStats(mshrProbes)
	t.l3pending.tbl.SetProbeStats(homeProbes)
	if h.registry != nil {
		t.protectedFn = func(tag mem.Addr) bool {
			b, ok := h.registry.Binding(t.id, tag)
			return ok && b.Protected != nil && b.Protected(tag)
		}
	}
	if h.sharded && h.attr != nil {
		t.slow.k = h.attr.ring.k
	}
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

// dirT resolves the directory bank tracking la: the single table
// classically, la's home-tile bank on a sharded build.
func (h *Hierarchy) dirT(la mem.Addr) *dirTable {
	if h.dirs != nil {
		return &h.dirs[h.HomeTile(la)]
	}
	return &h.dir
}

// dirTables returns every directory bank, for whole-directory walks
// (invariant checking, reports).
func (h *Hierarchy) dirTables() []*dirTable {
	if h.dirs == nil {
		return []*dirTable{&h.dir}
	}
	out := make([]*dirTable, len(h.dirs))
	for i := range h.dirs {
		out[i] = &h.dirs[i]
	}
	return out
}

// eachDirEntry visits every directory entry across all banks in bank
// order; fn returning false stops the walk.
func (h *Hierarchy) eachDirEntry(fn func(la mem.Addr, e *dirEntry) bool) {
	stopped := false
	for _, d := range h.dirTables() {
		d.forEach(func(la mem.Addr, e *dirEntry) bool {
			if !fn(la, e) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// dramAt returns the DRAM controller set serving home tile hm: the
// shared instance classically, the home's own shard-local instance on a
// sharded build. All instances share one backing mem.Memory.
func (h *Hierarchy) dramAt(hm int) *dram.DRAM {
	if h.drams != nil {
		return h.drams[hm]
	}
	return h.DRAM
}

// DRAMAccesses returns total DRAM accesses (reads + writes) across all
// controller instances; reports use it instead of DRAM.Accesses so the
// count is complete on sharded builds too.
func (h *Hierarchy) DRAMAccesses() uint64 {
	if h.drams == nil {
		return h.DRAM.Accesses()
	}
	var total uint64
	for _, d := range h.drams {
		total += d.Accesses()
	}
	return total
}

// SetDRAMPhase labels subsequent DRAM accesses for per-phase breakdowns
// (Figs 14 and 17). Classically — or before the run starts, p == nil —
// it flips every controller directly. On a running sharded build each
// controller is owned by its home shard, so the flip ships to each home
// on the calling shard's ordered channels; attribution around the flip
// point stays deterministic at any worker count.
func (h *Hierarchy) SetDRAMPhase(p *sim.Proc, name string) {
	if !h.sharded || p == nil {
		if h.drams == nil {
			h.DRAM.SetPhase(name)
			return
		}
		for _, d := range h.drams {
			d.SetPhase(name)
		}
		return
	}
	t := h.tiles[h.eng.ShardOf(p.Kernel())]
	for home := 0; home < h.cfg.Tiles; home++ {
		if home == t.id {
			h.dramAt(home).SetPhase(name)
			continue
		}
		d := h.dramAt(home)
		t.shard.Send(home, h.Mesh.Latency(t.id, home, 8), func() { d.SetPhase(name) })
	}
}

// DRAMPhaseAccesses merges the per-phase access counts across controller
// instances (one classically, one per home on a sharded build).
func (h *Hierarchy) DRAMPhaseAccesses() map[string]uint64 {
	out := make(map[string]uint64, len(h.DRAM.PhaseAccesses))
	if h.drams == nil {
		for k, v := range h.DRAM.PhaseAccesses {
			out[k] = v
		}
		return out
	}
	for _, d := range h.drams {
		for k, v := range d.PhaseAccesses {
			out[k] += v
		}
	}
	return out
}

// MarkNVM declares r non-volatile memory on every DRAM controller
// instance; call during setup, before the run starts.
func (h *Hierarchy) MarkNVM(r mem.Region) {
	if h.drams == nil {
		h.DRAM.MarkNVM(r)
		return
	}
	for _, d := range h.drams {
		d.MarkNVM(r)
	}
}

// hasExclusiveT is the tile-local form of hasExclusive: classically it
// peeks at the shared directory; sharded, a remote tile cannot, so it
// consults the tile's owned table (maintained by write grants and
// invalidation handlers). Lines bound to a PRIVATE-level phantom Morph
// never enter the directory — they are filled by the tile's own engine
// and discarded on eviction (§4.3) — so they are implicitly writable,
// mirroring the classic missing-entry→exclusive rule; without that case
// a store to a phantom line would request an upgrade the home can never
// grant.
func (h *Hierarchy) hasExclusiveT(t *tile, la mem.Addr) bool {
	if h.sharded {
		if _, ok := t.owned.Get(uint64(la)); ok {
			return true
		}
		if h.registry != nil {
			if b, ok := h.registry.Binding(t.id, la); ok && b.Phantom && b.Level == LevelPrivate {
				return true
			}
		}
		return false
	}
	return h.hasExclusive(t.id, la)
}

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
// On a sharded build the tracer is forked per tile — each shard records
// into its own unsynchronized buffer — and FinishStats merges the forks
// back into t in canonical (cycle, shard, seq) order, so traced sharded
// runs stay byte-identical at any worker count.
func (h *Hierarchy) AttachTracer(t *trace.Tracer) {
	h.tracer = t
	if h.sharded {
		h.tracers = nil
		if t != nil {
			h.tracers = t.Fork(h.cfg.Tiles)
			for i, d := range h.drams {
				d.AttachTracer(h.tracers[i])
			}
		} else {
			for _, d := range h.drams {
				d.AttachTracer(nil)
			}
		}
		return
	}
	h.DRAM.AttachTracer(t)
}

// tracerAt returns the tracer a path running on tile's kernel must
// record into: the tile's fork on a sharded build, the shared tracer
// classically. Nil when tracing is off.
func (h *Hierarchy) tracerAt(tile int) *trace.Tracer {
	if h.tracers != nil {
		return h.tracers[tile]
	}
	return h.tracer
}

// TracerAt exposes tracerAt for the engine package, whose callback spans
// must land in the executing tile's buffer.
func (h *Hierarchy) TracerAt(tile int) *trace.Tracer { return h.tracerAt(tile) }

// TraceAt emits a trace event on tile's track, stamped with tile's own
// clock (no-op without an attached tracer).
func (h *Hierarchy) TraceAt(tile int, component, kind, detail string) {
	tr := h.tracerAt(tile)
	if tr == nil {
		return
	}
	tr.Emit(uint64(h.tiles[tile].K.Now()), component, kind, detail)
}
