package cpu

import (
	"testing"

	"tako/internal/mem"
	"tako/internal/sim"
)

func TestLoadAsyncVCarriesValues(t *testing.T) {
	k, c := newCore(Goldmont())
	c.H.DRAM.Store().WriteU64(0x3000, 111)
	c.H.DRAM.Store().WriteU64(0x4000, 222)
	var h1, h2 *LoadHandle
	k.Go("t", func(p *sim.Proc) {
		h1 = c.LoadAsyncV(p, 0x3000)
		h2 = c.LoadAsyncV(p, 0x4000)
		c.Drain(p)
	})
	k.Run()
	if h1.Value != 111 || h2.Value != 222 {
		t.Fatalf("values = %d, %d", h1.Value, h2.Value)
	}
}

func TestLoadAsyncVInOrderIsSynchronous(t *testing.T) {
	k, c := newCore(LittleInOrder())
	c.H.DRAM.Store().WriteU64(0x3000, 5)
	k.Go("t", func(p *sim.Proc) {
		h := c.LoadAsyncV(p, 0x3000)
		// In-order: value available immediately, no window entry.
		if h.Value != 5 {
			t.Errorf("in-order async load not synchronous: %+v", h)
		}
		if len(c.window) != 0 {
			t.Errorf("in-order core grew a window")
		}
	})
	k.Run()
}

func TestVectorOps(t *testing.T) {
	k, c := newCore(Goldmont())
	k.Go("t", func(p *sim.Proc) {
		var line mem.Line
		line.SetWord(2, 33)
		c.StoreLine(p, 0x5000, &line)
		got := c.LoadLine(p, 0x5000)
		if got.Word(2) != 33 {
			t.Errorf("vector round trip = %d", got.Word(2))
		}
		c.StoreLineNT(p, 0x6000, &line)
	})
	k.Run()
	if c.H.DebugReadWord(0x6010) != 33 {
		t.Fatal("NT store lost")
	}
	// 3 instructions: StoreLine, LoadLine, StoreLineNT.
	if c.Instrs != 3 {
		t.Fatalf("instrs = %d, want 3 (vector ops are single instructions)", c.Instrs)
	}
}

func TestAtomicAddVariants(t *testing.T) {
	k, c := newCore(Goldmont())
	k.Go("t", func(p *sim.Proc) {
		c.AtomicAddLocal(p, 0x7000, 5)
		c.AtomicAddSync(p, 0x7000, 6)
		c.AtomicAdd(p, 0x7000, 7)
		c.DrainRMOs(p)
	})
	k.Run()
	if got := c.H.DebugReadWord(0x7000); got != 18 {
		t.Fatalf("sum = %d, want 18", got)
	}
}

func TestCoreConfigAccessors(t *testing.T) {
	if Goldmont().Kind != OutOfOrder || LittleInOrder().Kind != InOrder {
		t.Fatal("kinds wrong")
	}
	k, c := newCore(Config{}) // degenerate config gets sane defaults
	_ = k
	if c.Config().MLP < 1 || c.Config().IPC <= 0 {
		t.Fatalf("defaults not applied: %+v", c.Config())
	}
}
