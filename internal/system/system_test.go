package system

import (
	"strings"
	"testing"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/mem"
	"tako/internal/sim"
)

func TestSystemAssemblesAndRuns(t *testing.T) {
	s := New(Default(4))
	region := s.Alloc("data", 4096)
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		c.Store(p, region.Base, 5)
	})
	s.Go(1, "r", func(p *sim.Proc, c *cpu.Core) {
		p.Sleep(2000)
		if v := c.Load(p, region.Base); v != 5 {
			t.Errorf("cross-core read = %d", v)
		}
	})
	cycles := s.Run()
	if cycles == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if s.TotalInstrs() != 2 {
		t.Fatalf("instrs = %d", s.TotalInstrs())
	}
}

// TestStrandedAccessFailsRun: a demand access that can never finish
// fails Run. The load misses on a PRIVATE phantom Morph whose onMiss
// parks forever, so the thread is parked on its transaction, and the
// transaction waits, as a Task, on the callback: Blocked names the
// thread and the callback's proc, and counts the transaction.
func TestStrandedAccessFailsRun(t *testing.T) {
	s := New(Scaled(2, 16))
	never := sim.NewFuture(s.K)
	spec := core.MorphSpec{
		Name:   "stuck",
		OnMiss: &core.Callback{Instrs: 1, CritPath: 1, Fn: func(ctx *engine.Ctx) { ctx.P.Wait(never) }},
	}
	s.Go(0, "reader", func(p *sim.Proc, c *cpu.Core) {
		m, err := s.Tako.RegisterPhantom(p, spec, core.Private, 4096, 0)
		if err != nil {
			t.Error(err)
			return
		}
		c.Load(p, m.Region.Base)
		t.Error("the stranded load returned")
	})
	defer func() {
		msg, _ := recover().(string)
		if want := "deadlocked processes after run: [reader@0 cb:onMiss@0 waiting continuations: 1]"; !strings.Contains(msg, want) {
			t.Errorf("Run recovered %q, want it to report %q", msg, want)
		}
		s.K.Shutdown()
	}()
	s.Run()
}

func TestNoTakoBaseline(t *testing.T) {
	cfg := Default(2)
	cfg.NoTako = true
	s := New(cfg)
	if s.Tako != nil || s.E != nil {
		t.Fatal("NoTako config built täkō components")
	}
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		c.Load(p, mem.Addr(0x1000))
	})
	s.Run()
	if s.EngineInstrs() != 0 {
		t.Fatal("engine instrs nonzero without engines")
	}
}

// TestBuildRejectsFastForwardOnTako pins that a täkō machine whose
// Config asks for fast-forward fails at build time, in New, with the
// message that names the fix, instead of silently running in full.
func TestBuildRejectsFastForwardOnTako(t *testing.T) {
	cfg := Scaled(2, 16)
	cfg.FastForward = 1 << 10
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "täkō") || !strings.Contains(msg, "FastForward") {
			t.Errorf("New of a täkō machine with FastForward: recovered %q, want the täkō fast-forward panic", msg)
		}
	}()
	New(cfg)
}

func TestScaledConfigRuns(t *testing.T) {
	s := New(Scaled(2, 16))
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		for i := 0; i < 100; i++ {
			c.Store(p, mem.Addr(0x1000+i*64), uint64(i))
		}
	})
	s.Run()
}

func TestSystemTraceHook(t *testing.T) {
	s := New(Default(2))
	tr := s.Trace(32, "cb.*")
	s.Go(0, "w", func(p *sim.Proc, c *cpu.Core) {
		c.Load(p, mem.Addr(0x2000))
	})
	s.Run()
	// Plain loads produce no callback events; the tracer is attached
	// and filtered.
	if tr.Total() != 0 {
		t.Fatalf("unexpected events: %d", tr.Total())
	}
}
