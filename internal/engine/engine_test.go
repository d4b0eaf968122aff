package engine

import (
	"testing"

	"tako/internal/energy"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

// fakeProg serves one spec for all morphs/kinds.
type fakeProg struct {
	spec  Spec
	views map[int]interface{}
}

func (f *fakeProg) Spec(morphID int, kind hier.CallbackKind) (Spec, bool) {
	if f.spec.Fn == nil {
		return Spec{}, false
	}
	return f.spec, true
}

func (f *fakeProg) View(morphID, tile int) interface{} {
	if f.views == nil {
		return nil
	}
	return f.views[tile]
}

func binding() hier.Binding {
	return hier.Binding{MorphID: 1, Level: hier.LevelPrivate, Phantom: true, HasMiss: true}
}

func setup(cfg Config, spec Spec) (*sim.Kernel, *Engines) {
	k := sim.NewKernel()
	meter := energy.NewMeter()
	e := New(k, cfg, 2, &fakeProg{spec: spec}, meter)
	h := hier.New(k, hier.DefaultConfig(2), meter, nil, nil)
	e.AttachHierarchy(h)
	return k, e
}

func runOne(k *sim.Kernel, e *Engines, spec Spec) sim.Cycle {
	var line mem.Line
	_, done := e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	k.Run()
	return done.When()
}

func TestCallbackFillsLineAndCompletes(t *testing.T) {
	spec := Spec{
		Cost: CallbackCost{Instrs: 10, CritPath: 5},
		Fn:   func(ctx *Ctx) { ctx.Line.SetWord(0, 7) },
	}
	k, e := setup(DefaultConfig(), spec)
	var line mem.Line
	_, done := e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	k.Run()
	if !done.Done() {
		t.Fatal("callback never completed")
	}
	if line.Word(0) != 7 {
		t.Fatal("callback did not fill line")
	}
	// 5-cycle critical path at 1-cycle PEs, 10 instrs over 15 int PEs
	// (occupancy 1): latency = 5, plus first-use bitstream load (64).
	if got := done.When(); got != 69 {
		t.Fatalf("completion at %d, want 69", got)
	}
	if e.Stats(0).Callbacks != 1 || e.Stats(0).Instrs != 10 {
		t.Fatalf("stats: %+v", e.Stats(0))
	}
}

func TestBitstreamCachedAfterFirstUse(t *testing.T) {
	spec := Spec{Cost: CallbackCost{Instrs: 1, CritPath: 1}, Fn: func(*Ctx) {}}
	k, e := setup(DefaultConfig(), spec)
	var line mem.Line
	_, d1 := e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	k.Run()
	t1 := d1.When()
	_, d2 := e.Run(0, hier.CbMiss, binding(), 0x2000, &line)
	k.Run()
	t2 := d2.When() - t1
	if t2 >= t1 {
		t.Fatalf("second invocation (%d) not faster than first (%d): bitstream not cached", t2, t1)
	}
	if e.Stats(0).BitLoads != 1 {
		t.Fatalf("bitstream loads = %d, want 1", e.Stats(0).BitLoads)
	}
}

func TestPELatencyScalesCritPath(t *testing.T) {
	mk := func(peLat sim.Cycle) sim.Cycle {
		cfg := DefaultConfig()
		cfg.PELatency = peLat
		cfg.BitstreamLoad = 0
		spec := Spec{Cost: CallbackCost{Instrs: 10, CritPath: 8}, Fn: func(*Ctx) {}}
		k, e := setup(cfg, spec)
		return runOne(k, e, spec)
	}
	if t1, t8 := mk(1), mk(8); t8 != 8*t1 {
		t.Fatalf("PE latency scaling: %d vs %d", t1, t8)
	}
}

func TestInOrderCoreMuchSlower(t *testing.T) {
	spec := Spec{Cost: CallbackCost{Instrs: 40, CritPath: 10}, Fn: func(*Ctx) {}}
	cfgF := DefaultConfig()
	cfgF.BitstreamLoad = 0
	kf, ef := setup(cfgF, spec)
	fabric := runOne(kf, ef, spec)

	cfgI := DefaultConfig()
	cfgI.InOrderCore = true
	ki, ei := setup(cfgI, spec)
	inorder := runOne(ki, ei, spec)
	if inorder < 10*fabric {
		t.Fatalf("in-order (%d) should be ≫ fabric (%d)", inorder, fabric)
	}
}

func TestIdealEngineZeroCompute(t *testing.T) {
	spec := Spec{Cost: CallbackCost{Instrs: 1000, CritPath: 500}, Fn: func(*Ctx) {}}
	k, e := setup(IdealConfig(), spec)
	if got := runOne(k, e, spec); got != 0 {
		t.Fatalf("ideal engine took %d cycles, want 0", got)
	}
}

func TestCallbackBufferBoundsConcurrency(t *testing.T) {
	// Long callbacks; buffer of 2; 4 requests on distinct addrs.
	cfg := DefaultConfig()
	cfg.CallbackBuffer = 2
	cfg.BitstreamLoad = 0
	spec := Spec{
		Cost: CallbackCost{Instrs: 1, CritPath: 1},
		Fn:   func(ctx *Ctx) { ctx.P.Sleep(100) },
	}
	k, e := setup(cfg, spec)
	var line mem.Line
	var dones []*sim.Future
	for i := 0; i < 4; i++ {
		_, d := e.Run(0, hier.CbMiss, binding(), mem.Addr(0x1000+i*64), &line)
		dones = append(dones, d)
	}
	k.Run()
	// First two finish ~101; second two wait for buffer slots: ~202.
	if dones[0].When() >= dones[3].When() {
		t.Fatal("no buffer backpressure observed")
	}
	if dones[3].When() < 200 {
		t.Fatalf("4th callback at %d, want ≥200 (buffer of 2)", dones[3].When())
	}
}

func TestSaturated(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CallbackBuffer = 1
	cfg.BitstreamLoad = 0
	spec := Spec{Cost: CallbackCost{Instrs: 1, CritPath: 1}, Fn: func(ctx *Ctx) { ctx.P.Sleep(50) }}
	k, e := setup(cfg, spec)
	var line mem.Line
	e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	sawSaturated := false
	k.At(25, func() { sawSaturated = e.Saturated(0) })
	k.Run()
	if !sawSaturated {
		t.Fatal("engine not saturated mid-callback with 1-entry buffer")
	}
	if e.Saturated(0) {
		t.Fatal("engine still saturated after drain")
	}
}

func TestSameAddrSerializes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitstreamLoad = 0
	spec := Spec{Cost: CallbackCost{Instrs: 1, CritPath: 1}, Fn: func(ctx *Ctx) { ctx.P.Sleep(100) }}
	k, e := setup(cfg, spec)
	var line mem.Line
	_, d1 := e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	_, d2 := e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	_, d3 := e.Run(0, hier.CbMiss, binding(), 0x2000, &line) // different addr
	k.Run()
	if d2.When() <= d1.When() {
		t.Fatalf("same-addr callbacks overlapped: %d, %d", d1.When(), d2.When())
	}
	if d3.When() > d1.When()+5 {
		t.Fatalf("different-addr callback serialized: %d vs %d", d3.When(), d1.When())
	}
}

func TestSequentialSerializesAcrossAddrs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitstreamLoad = 0
	spec := Spec{
		Cost:       CallbackCost{Instrs: 1, CritPath: 1},
		Sequential: true,
		Fn:         func(ctx *Ctx) { ctx.P.Sleep(100) },
	}
	k, e := setup(cfg, spec)
	var line mem.Line
	_, d1 := e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	_, d2 := e.Run(0, hier.CbMiss, binding(), 0x2000, &line)
	k.Run()
	if d2.When() <= d1.When() {
		t.Fatal("sequential callbacks overlapped across addresses")
	}
}

func TestValidateFit(t *testing.T) {
	cfg := DefaultConfig() // 25 PEs * 16 = 400 slots
	k := sim.NewKernel()
	e := New(k, cfg, 1, &fakeProg{}, nil)
	if err := e.ValidateFit(94); err != nil {
		t.Fatalf("HATS-sized Morph rejected: %v", err)
	}
	if err := e.ValidateFit(401); err == nil {
		t.Fatal("oversized Morph accepted")
	}
}

func TestInterruptHook(t *testing.T) {
	spec := Spec{Cost: CallbackCost{Instrs: 1, CritPath: 1}, Fn: func(ctx *Ctx) { ctx.RaiseInterrupt() }}
	k, e := setup(DefaultConfig(), spec)
	var gotTile, gotMorph int
	var gotAddr mem.Addr
	e.Interrupt = func(tile, morphID int, addr mem.Addr) {
		gotTile, gotMorph, gotAddr = tile, morphID, addr
	}
	var line mem.Line
	e.Run(1, hier.CbEviction, binding(), 0x1040, &line)
	k.Run()
	if gotTile != 1 || gotMorph != 1 || gotAddr != 0x1040 {
		t.Fatalf("interrupt: tile=%d morph=%d addr=%v", gotTile, gotMorph, gotAddr)
	}
	if e.Stats(1).Interrupts != 1 {
		t.Fatal("interrupt not counted")
	}
}

func TestCtxMemoryOpsThroughHierarchy(t *testing.T) {
	spec := Spec{
		Cost: CallbackCost{Instrs: 4, CritPath: 2},
		Fn: func(ctx *Ctx) {
			v := ctx.LoadWord(0x8000)
			ctx.StoreWord(0x8008, v+1)
			ctx.AtomicAddWord(0x8010, 5)
		},
	}
	k, e := setup(DefaultConfig(), spec)
	// Seed backing memory via the attached hierarchy's DRAM.
	// (setup built its own hierarchy; rebuild with access to it.)
	kk := sim.NewKernel()
	meter := energy.NewMeter()
	ee := New(kk, DefaultConfig(), 2, &fakeProg{spec: spec}, meter)
	h := hier.New(kk, hier.DefaultConfig(2), meter, nil, nil)
	ee.AttachHierarchy(h)
	h.DRAM.Store().WriteU64(0x8000, 41)
	var line mem.Line
	_, done := ee.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	kk.Run()
	if !done.Done() {
		t.Fatal("callback hung")
	}
	if got := h.DebugReadWord(0x8008); got != 42 {
		t.Fatalf("engine store result = %d, want 42", got)
	}
	if got := h.DebugReadWord(0x8010); got != 5 {
		t.Fatalf("engine add result = %d, want 5", got)
	}
	if ee.Stats(0).MemAccesses != 3 {
		t.Fatalf("mem accesses = %d, want 3", ee.Stats(0).MemAccesses)
	}
	_ = k
	_ = e
}
