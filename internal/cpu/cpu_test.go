package cpu

import (
	"testing"

	"tako/internal/energy"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

func newCore(cfg Config) (*sim.Kernel, *Core) {
	k := sim.NewKernel()
	h := hier.New(k, hier.DefaultConfig(2), energy.NewMeter(), nil, nil)
	return k, New(h, 0, cfg, energy.NewMeter())
}

func TestComputeThroughput(t *testing.T) {
	k, c := newCore(Goldmont()) // IPC 2
	var took sim.Cycle
	k.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		c.Compute(p, 100)
		took = p.Now() - t0
	})
	k.Run()
	if took != 50 {
		t.Fatalf("100 instrs at IPC 2 took %d cycles, want 50", took)
	}
	if c.Instrs != 100 {
		t.Fatalf("instrs = %d", c.Instrs)
	}
}

func TestOOOOverlapsIndependentMisses(t *testing.T) {
	run := func(cfg Config) sim.Cycle {
		k, c := newCore(cfg)
		var end sim.Cycle
		k.Go("t", func(p *sim.Proc) {
			for i := 0; i < 8; i++ {
				c.LoadAsyncV(p, mem.Addr(0x10000+i*4096)) // distinct pages/streams
			}
			c.Drain(p)
			end = p.Now()
		})
		k.Run()
		return end
	}
	ooo := run(Goldmont())
	ino := run(LittleInOrder())
	if ooo*2 > ino {
		t.Fatalf("OOO (%d) should be ≪ in-order (%d) on independent misses", ooo, ino)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	k, c := newCore(Goldmont())
	var took sim.Cycle
	k.Go("t", func(p *sim.Proc) {
		t0 := p.Now()
		c.Branch(p, false)
		c.Branch(p, true)
		took = p.Now() - t0
	})
	k.Run()
	if took != Goldmont().MispredictPenalty {
		t.Fatalf("penalty = %d, want %d", took, Goldmont().MispredictPenalty)
	}
	if c.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d", c.Mispredicts)
	}
}

func TestAtomicExchangeCountsTwoInstrs(t *testing.T) {
	k, c := newCore(Goldmont())
	k.Go("t", func(p *sim.Proc) {
		c.Store(p, 0x100, 1)
		c.AtomicExchange(p, 0x100, 2)
	})
	k.Run()
	if c.Instrs != 3 {
		t.Fatalf("instrs = %d, want 3", c.Instrs)
	}
}

func TestWindowBoundsOutstanding(t *testing.T) {
	cfg := Goldmont()
	cfg.MLP = 2
	k, c := newCore(cfg)
	k.Go("t", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			c.LoadAsyncV(p, mem.Addr(0x20000+i*64))
			if len(c.window) > 2 {
				t.Errorf("window grew to %d", len(c.window))
			}
		}
		c.Drain(p)
	})
	k.Run()
}
