package oracle

import (
	"fmt"
	"math/rand"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
)

// TraceConfig sizes a randomized verification run.
type TraceConfig struct {
	Seed       int64
	Tiles      int
	OpsPerTile int
	// CacheScale shrinks caches (hier.ScaledConfig) so the working set
	// far exceeds them, forcing evictions and Morph callback churn.
	CacheScale int
	// CheckEvery is the oracle's invariant-check period in hierarchy
	// events (0 disables periodic checks; the final check always runs).
	CheckEvery int
	// Script, when non-empty, replaces the seeded generator: each 6
	// bytes decode one operation (fuzzing entry point).
	Script []byte
	// Chooser, when non-nil, is installed on the kernel to resolve
	// same-cycle scheduling ties (the interleaving explorer's hook). If
	// it implements Arm(), it is armed once Morph setup completes, so
	// choice points cover the operation mix rather than setup plumbing.
	Chooser sim.Chooser
	// RecoverPanics converts a panic raised during the run (coherence
	// assertion, invariant check, illegal transaction transition) into
	// an error return instead of crashing, after unwinding the
	// simulation's processes. Exploration runs set this.
	RecoverPanics bool
	// RealMorph additionally registers an identity PRIVATE Morph over
	// the realA region: values are unchanged (the oracle still checks
	// them against the shadow), but every miss now runs an onMiss
	// callback between the home grant and the private install — the
	// in-flight window that mid-install revocation races live in.
	RealMorph bool
}

// DefaultTraceConfig returns a config exercising 4 tiles with heavy
// cache pressure.
func DefaultTraceConfig(seed int64) TraceConfig {
	return TraceConfig{Seed: seed, Tiles: 4, OpsPerTile: 2000, CacheScale: 32, CheckEvery: 256}
}

// TraceResult reports one verification run.
type TraceResult struct {
	Cycles sim.Cycle
	Ops    int
	Oracle *Oracle
	// Fingerprint is byte-identical across equal-seed runs (the
	// determinism property).
	Fingerprint string
}

type opKind int

const (
	opLoad opKind = iota
	opStore
	opLoadLine
	opStoreLine
	opStoreLineNT
	opAtomicAdd // local RMW add
	opAtomicRMO // local RMW min/max
	opExchange
	opRemoteAdd // async RMO add
	opRemoteRMO // async RMO min/max
	opDrain
	opFlush
	nOpKinds
)

type op struct {
	kind   opKind
	region int
	line   int
	word   int
	val    uint64
}

// Harness region table indices.
const (
	rRealA    = iota // shared read-write real data
	rRealB           // second real region (different home-bank spread)
	rSrcC            // read-only real source for the derived phantom
	rDerived         // read-only SHARED phantom computed from rSrcC
	rPhantomS        // read-write SHARED phantom backed by the shadow
	rPhantomP        // per-tile PRIVATE phantom backed by the shadow
	rJournal         // writeback journal (untracked; flush/load only)
	nRegions
)

// Region sizes in cache lines. With CacheScale 32 the per-tile L2 holds
// 64 lines and an L3 bank 256, so the combined working set overflows
// both and every path (fills, evictions, callbacks, writebacks) runs
// constantly.
var regionLines = [nRegions]uint64{64, 128, 32, 32, 96, 32, 128}

const derivedXOR = 0x5ee0_5ee0_5ee0_5ee0

type hregion struct {
	r        mem.Region
	writable bool
	remoteOK bool // legal target for home-bank RMOs
	level    hier.Level
}

type harness struct {
	cfg     TraceConfig
	sys     *system.System
	o       *Oracle
	regs    [nRegions]hregion
	phanP   []mem.Region // per-tile PRIVATE phantom regions
	morphs  []*core.Morph
	journal mem.Region
}

// RunTrace builds a system with the harness Morphs attached, runs the
// generated (or scripted) operation mix on every tile, then flushes,
// quiesces, and sweeps the final state. The returned result's Oracle
// holds any mismatches or invariant violations.
func RunTrace(cfg TraceConfig) (*TraceResult, error) {
	if cfg.Tiles < 1 {
		cfg.Tiles = 1
	}
	if cfg.CacheScale < 1 {
		cfg.CacheScale = 32
	}
	scfg := system.Scaled(cfg.Tiles, cfg.CacheScale)
	scfg.Hier.FreshChecks = true
	s := system.New(scfg)
	if cfg.Chooser != nil {
		s.K.SetChooser(cfg.Chooser)
	}
	o := New(s.H)
	o.CheckEvery = cfg.CheckEvery

	hn := &harness{cfg: cfg, sys: s, o: o}
	hn.layout()

	ops := hn.buildOps()
	nops := 0
	for _, tops := range ops {
		nops += len(tops)
	}

	setupDone := sim.NewFuture(s.K)
	var regErr error
	s.Go(0, "oracle-setup", func(p *sim.Proc, c *cpu.Core) {
		regErr = hn.register(p)
		setupDone.Complete()
	})
	bar := sim.NewBarrier(s.K, cfg.Tiles)
	for t := 0; t < cfg.Tiles; t++ {
		t := t
		s.Go(t, "oracle-trace", func(p *sim.Proc, c *cpu.Core) {
			p.Wait(setupDone)
			if regErr != nil {
				return
			}
			// Arm the chooser (idempotent) only once setup is done:
			// exploration budgets then cover the operation mix, drain,
			// and flush phases instead of registration plumbing.
			if a, ok := cfg.Chooser.(interface{ Arm() }); ok {
				a.Arm()
			}
			for _, one := range ops[t] {
				hn.exec(p, c, t, one)
			}
			c.DrainRMOs(p)
			bar.Arrive(p)
			if t == 0 {
				if cfg.RealMorph {
					// The identity Morph is PRIVATE to tile 0, but other
					// tiles' fills of realA also carried the Morph bit;
					// Unregister's flush covers only tile 0's domain, so
					// sweep the remaining private domains explicitly —
					// and BEFORE Unregister drops the binding, or the
					// periodic invariant check can observe those tiles'
					// Morph-bit lines with no live binding.
					for tt := 1; tt < cfg.Tiles; tt++ {
						s.H.FlushRegion(p, tt, hn.regs[rRealA].r, hier.LevelPrivate)
					}
				}
				// Unregister flushes every Morph's data (callbacks
				// verify evicted lines against the shadow) before
				// the final sweep.
				for _, m := range hn.morphs {
					s.Tako.Unregister(p, m)
				}
			}
		})
	}
	cycles, runErr := runSystem(s, cfg.RecoverPanics)
	if runErr != nil {
		return nil, runErr
	}
	if regErr != nil {
		return nil, regErr
	}
	o.VerifyFinal()
	res := &TraceResult{
		Cycles: cycles,
		Ops:    nops,
		Oracle: o,
		Fingerprint: fmt.Sprintf("cycles=%d %s\n%s",
			cycles, o.Fingerprint(), s.H.Metrics.String()),
	}
	return res, nil
}

// runSystem runs the simulation to completion. With recoverPanics set,
// a panic raised during the run — a coherence assertion, an invariant
// check, an illegal transaction transition — is converted into an error
// after Kernel.Shutdown unwinds the abandoned processes, so exploration
// can treat "this schedule crashed" as a finding rather than dying.
func runSystem(s *system.System, recoverPanics bool) (cycles sim.Cycle, err error) {
	if recoverPanics {
		defer func() {
			if r := recover(); r != nil {
				s.K.Shutdown()
				if pp, ok := r.(*sim.ProcPanic); ok {
					err = fmt.Errorf("panic in proc %q: %v", pp.Proc, pp.Value)
				} else {
					err = fmt.Errorf("panic: %v", r)
				}
			}
		}()
	}
	return s.Run(), nil
}

// layout allocates the real regions, seeds memory and shadow with a
// deterministic pattern, and tracks everything with the oracle.
func (hn *harness) layout() {
	s, o := hn.sys, hn.o
	alloc := func(name string, idx int) mem.Region {
		return s.Alloc(name, regionLines[idx]*mem.LineSize)
	}
	realA := alloc("oracle.realA", rRealA)
	realB := alloc("oracle.realB", rRealB)
	srcC := alloc("oracle.srcC", rSrcC)
	hn.journal = alloc("oracle.journal", rJournal)

	seed := func(r mem.Region, salt uint64) {
		for i := uint64(0); i < r.Size/8; i++ {
			v := (i*0x9e3779b97f4a7c15 + salt) | 1
			s.H.DRAM.Store().WriteU64(r.Word(i), v)
			o.Shadow().WriteU64(r.Word(i), v)
		}
	}
	seed(realA, 0xa)
	seed(realB, 0xb)
	seed(srcC, 0xc)

	hn.regs[rRealA] = hregion{realA, true, true, hier.LevelNone}
	hn.regs[rRealB] = hregion{realB, true, true, hier.LevelNone}
	hn.regs[rSrcC] = hregion{srcC, false, false, hier.LevelNone}
	// The journal is flushable and loadable but never a direct store
	// target: callbacks own its contents (engine stores around the L2),
	// so core ops against it exercise the around-L2 flush and sibling
	// migration paths without confusing the shadow.
	hn.regs[rJournal] = hregion{hn.journal, false, false, hier.LevelNone}
	o.Track(realA, Plain)
	o.Track(realB, Plain)
	o.Track(srcC, Plain)
	// Journal kind: loads are unchecked (they race the callback's
	// store/mirror pair) but the final sweep verifies that no journaled
	// write was dropped — each phantom line maps to its own slot, and
	// writebacks of one line are serialized by its line lock.
	o.Track(hn.journal, Journal)
}

// register installs the harness Morphs: the shadow-backed SHARED and
// per-tile PRIVATE phantoms, and the derived read-only phantom.
func (hn *harness) register(p *sim.Proc) error {
	s, o := hn.sys, hn.o

	m, err := s.Tako.RegisterPhantom(p, hn.shadowSpec("oracle.phantomS", true),
		core.Shared, regionLines[rPhantomS]*mem.LineSize, 0)
	if err != nil {
		return err
	}
	hn.morphs = append(hn.morphs, m)
	hn.regs[rPhantomS] = hregion{m.Region, true, true, hier.LevelShared}
	o.Track(m.Region, ShadowPhantom)
	hn.seedShadow(m.Region, 0x51)

	srcC := hn.regs[rSrcC].r
	derivedRegion := new(mem.Region) // late-bound: callbacks run only after registration
	dm, err := s.Tako.RegisterPhantom(p, hn.derivedSpec("oracle.derived", srcC, derivedRegion),
		core.Shared, regionLines[rDerived]*mem.LineSize, 0)
	if err != nil {
		return err
	}
	*derivedRegion = dm.Region
	hn.morphs = append(hn.morphs, dm)
	hn.regs[rDerived] = hregion{dm.Region, false, false, hier.LevelShared}
	o.Track(dm.Region, Derived)
	// Precompute the transform into the shadow: derived loads must
	// observe transform(source) exactly.
	for i := uint64(0); i < dm.Region.Size/8; i++ {
		o.Shadow().WriteU64(dm.Region.Word(i), o.Shadow().ReadU64(srcC.Word(i))^derivedXOR)
	}

	// One PRIVATE shadow phantom per tile; tile t touches only its own
	// (private phantoms are untracked by the directory, so cross-tile
	// copies would legitimately diverge — and the flat shadow could not
	// model that).
	hn.phanP = make([]mem.Region, hn.cfg.Tiles)
	for t := 0; t < hn.cfg.Tiles; t++ {
		pm, err := s.Tako.RegisterPhantom(p, hn.shadowSpec(fmt.Sprintf("oracle.phantomP%d", t), false),
			core.Private, regionLines[rPhantomP]*mem.LineSize, t)
		if err != nil {
			return err
		}
		hn.morphs = append(hn.morphs, pm)
		hn.phanP[t] = pm.Region
		o.Track(pm.Region, ShadowPhantom)
		hn.seedShadow(pm.Region, 0x70+uint64(t))
	}
	hn.regs[rPhantomP] = hregion{mem.Region{}, true, false, hier.LevelPrivate}

	if hn.cfg.RealMorph {
		// Identity PRIVATE Morph over realA: onMiss leaves the fetched
		// line untouched, so coherence and values are those of plain
		// memory — but fills now sleep in the callback while the line
		// is in flight between the home grant and the install.
		rm, err := s.Tako.RegisterReal(p, core.MorphSpec{
			Name:   "oracle.realIdent",
			OnMiss: &core.Callback{Instrs: 6, CritPath: 3, Fn: func(c *engine.Ctx) {}},
		}, core.Private, hn.regs[rRealA].r, 0)
		if err != nil {
			return err
		}
		hn.morphs = append(hn.morphs, rm)
	}
	return nil
}

func (hn *harness) seedShadow(r mem.Region, salt uint64) {
	for i := uint64(0); i < r.Size/8; i++ {
		hn.o.Shadow().WriteU64(r.Word(i), (i*0x2545f4914f6cdd1d+salt)|1)
	}
}

// shadowSpec builds a ShadowPhantom Morph: the flat shadow is the
// region's backing truth. onMiss materializes lines from it; eviction
// callbacks verify the outgoing data against it (every store already
// committed there, and the line stays locked until the callback ends).
// The SHARED variant also journals writebacks through the engine port,
// exercising callback-issued stores and around-the-L2 writebacks.
func (hn *harness) shadowSpec(name string, journal bool) core.MorphSpec {
	o := hn.o
	spec := core.MorphSpec{
		Name: name,
		OnMiss: &core.Callback{Instrs: 8, CritPath: 4, Fn: func(c *engine.Ctx) {
			o.Shadow().PeekLine(c.Addr, c.Line)
		}},
		OnEviction: &core.Callback{Instrs: 4, CritPath: 2, Fn: func(c *engine.Ctx) {
			o.CheckEvictedLine(name+".onEviction", c.Tile, c.Addr, c.Line)
		}},
		OnWriteback: &core.Callback{Instrs: 12, CritPath: 6, Fn: func(c *engine.Ctx) {
			o.CheckEvictedLine(name+".onWriteback", c.Tile, c.Addr, c.Line)
			o.Shadow().WriteLine(c.Addr, c.Line)
		}},
	}
	if journal {
		j := hn.journal
		spec.OnWriteback.Fn = func(c *engine.Ctx) {
			o.CheckEvictedLine(name+".onWriteback", c.Tile, c.Addr, c.Line)
			o.Shadow().WriteLine(c.Addr, c.Line)
			slot := (uint64(c.Addr) / mem.LineSize) % j.Lines()
			c.StoreLine(j.At(slot*mem.LineSize), c.Line)
			// Mirror into the shadow (engine stores bypass the
			// observer): the line lock serializes this pair against
			// other writebacks of the same phantom line.
			o.Shadow().WriteLine(j.At(slot*mem.LineSize), c.Line)
		}
	}
	return spec
}

// derivedSpec builds the read-only Derived Morph: onMiss loads the
// corresponding source line through the engine port and applies a
// word-wise transform. No eviction callbacks: clean lines are simply
// discarded and re-derived on the next miss.
func (hn *harness) derivedSpec(name string, src mem.Region, region *mem.Region) core.MorphSpec {
	return core.MorphSpec{
		Name: name,
		OnMiss: &core.Callback{Instrs: 16, CritPath: 8, Fn: func(c *engine.Ctx) {
			off := uint64(c.Addr - region.Base)
			line := c.LoadLine(src.At(off % src.Size))
			for w := 0; w < mem.WordsPerLine; w++ {
				c.Line.SetWord(w, line.Word(w)^derivedXOR)
			}
		}},
	}
}

// buildOps produces each tile's operation sequence, either from the
// seeded generator or by decoding the fuzz script.
func (hn *harness) buildOps() [][]op {
	ops := make([][]op, hn.cfg.Tiles)
	if len(hn.cfg.Script) > 0 {
		for i := 0; i+6 <= len(hn.cfg.Script); i += 6 {
			b := hn.cfg.Script[i : i+6]
			one := op{
				kind:   opKind(b[0]) % nOpKinds,
				region: int(b[1]) % nRegions,
				line:   int(b[2]) | int(b[3])<<8,
				word:   int(b[4]) % mem.WordsPerLine,
				val:    (uint64(b[5]) + 1) * 0x0101_0101,
			}
			t := (i / 6) % hn.cfg.Tiles
			ops[t] = append(ops[t], one)
		}
		return ops
	}
	for t := 0; t < hn.cfg.Tiles; t++ {
		rng := rand.New(rand.NewSource(hn.cfg.Seed + int64(t)*1_000_003))
		ops[t] = make([]op, hn.cfg.OpsPerTile)
		for i := range ops[t] {
			ops[t][i] = op{
				kind:   pickKind(rng),
				region: pickRegion(rng),
				line:   pickLine(rng),
				word:   rng.Intn(mem.WordsPerLine),
				val:    rng.Uint64() | 1,
			}
		}
	}
	return ops
}

// pickKind draws an operation with fixed weights (loads dominate, like
// real workloads; flushes are rare but present).
func pickKind(rng *rand.Rand) opKind {
	weights := [nOpKinds]int{24, 16, 8, 6, 3, 8, 4, 4, 10, 4, 2, 1}
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for k, w := range weights {
		if n < w {
			return opKind(k)
		}
		n -= w
	}
	return opLoad
}

func pickRegion(rng *rand.Rand) int {
	// rJournal's weight is zero: the seeded generator predates it, and
	// keeping it out preserves every seeded trace byte-for-byte. Scripts
	// (fuzzing, exploration scenarios) target it explicitly.
	weights := [nRegions]int{25, 15, 10, 10, 25, 15, 0}
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for r, w := range weights {
		if n < w {
			return r
		}
		n -= w
	}
	return rRealA
}

// pickLine biases half the accesses into a hot set of 8 lines so the
// trace mixes heavy line contention with broad eviction pressure.
func pickLine(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return rng.Intn(8)
	}
	return rng.Intn(1 << 16)
}

// exec runs one operation, first legalizing it: writes to read-only
// regions demote to loads, home-bank RMOs retarget to RMO-legal
// regions, and non-temporal stores stay on memory-backed data (an NT
// store to a non-resident phantom line would bypass its Morph).
func (hn *harness) exec(p *sim.Proc, c *cpu.Core, tile int, one op) {
	k := one.kind
	reg := hn.regs[one.region]
	if one.region == rPhantomP {
		reg.r = hn.phanP[tile]
	}
	if !reg.writable {
		switch k {
		case opStore, opAtomicAdd, opAtomicRMO, opExchange:
			k = opLoad
		case opStoreLine, opStoreLineNT:
			k = opLoadLine
		}
	}
	if (k == opRemoteAdd || k == opRemoteRMO) && !reg.remoteOK {
		reg = hn.regs[rRealA]
	}
	if k == opStoreLineNT && one.region != rRealA && one.region != rRealB {
		reg = hn.regs[rRealB]
	}
	a := reg.r.At((uint64(one.line)%reg.r.Lines())*mem.LineSize + uint64(one.word)*8)

	rmoOp := hier.RMOMin
	if one.val&2 != 0 {
		rmoOp = hier.RMOMax
	}
	switch k {
	case opLoad:
		c.Load(p, a)
	case opStore:
		c.Store(p, a, one.val)
	case opLoadLine:
		c.LoadLine(p, a)
	case opStoreLine:
		var line mem.Line
		for w := 0; w < mem.WordsPerLine; w++ {
			line.SetWord(w, one.val+uint64(w))
		}
		c.StoreLine(p, a, &line)
	case opStoreLineNT:
		var line mem.Line
		for w := 0; w < mem.WordsPerLine; w++ {
			line.SetWord(w, one.val^uint64(w))
		}
		c.StoreLineNT(p, a, &line)
	case opAtomicAdd:
		c.AtomicAddLocal(p, a, one.val&0xffff)
	case opAtomicRMO:
		c.AtomicRMOLocal(p, a, rmoOp, one.val)
	case opExchange:
		c.AtomicExchange(p, a, one.val)
	case opRemoteAdd:
		c.AtomicAdd(p, a, one.val&0xffff)
	case opRemoteRMO:
		c.AtomicRMO(p, a, rmoOp, one.val)
	case opDrain:
		c.DrainRMOs(p)
	case opFlush:
		hn.sys.H.FlushRegion(p, tile, reg.r, reg.level)
	}
}
