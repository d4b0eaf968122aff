package hier_test

import (
	"testing"

	"tako/internal/cpu"
	"tako/internal/energy"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/oracle"
	"tako/internal/sim"
	"tako/internal/trace"
)

// These tests drive Hierarchy.LoadAsync through its caller, an
// out-of-order core's LoadAsyncV.

// newOOOMachine builds a 2-tile machine without Morph support and an
// out-of-order core on tile 0.
func newOOOMachine() (*sim.Kernel, *hier.Hierarchy, *cpu.Core) {
	k := sim.NewKernel()
	h := hier.New(k, hier.DefaultConfig(2), energy.NewMeter(), nil, nil)
	return k, h, cpu.New(h, 0, cpu.Goldmont(), energy.NewMeter())
}

// TestLoadAsyncVCommitsLikeLoad: an out-of-order load, which no thread
// waits on, commits as a blocking load of the same cold line does. On two
// fresh, identical machines both give the same value, load.latency count
// and sum, LoadLat mean, oracle load commits and traced load span.
func TestLoadAsyncVCommitsLikeLoad(t *testing.T) {
	const a = mem.Addr(0x3008)
	type commit struct {
		v            uint64
		latN         uint64
		latSum, mean float64
		oracleLoads  uint64
		span         trace.Event
	}
	run := func(async bool) commit {
		k, h, c := newOOOMachine()
		h.DRAM.Store().WriteU64(a, 77)
		o := oracle.New(h)
		o.Shadow().WriteU64(a, 77)
		o.Track(mem.Region{Name: "data", Base: a.Line(), Size: mem.LineSize}, oracle.Plain)
		tr := trace.New(256)
		h.AttachTracer(tr)
		var got commit
		k.Go("t", func(p *sim.Proc) {
			if async {
				lh := c.LoadAsyncV(p, a)
				c.Drain(p)
				got.v = lh.Value
			} else {
				got.v = c.Load(p, a)
			}
		})
		k.Run()
		if err := o.Err(); err != nil {
			t.Fatal(err)
		}
		lat := h.Metrics.Histogram("load.latency")
		got.latN, got.latSum, got.mean, got.oracleLoads = lat.Count(), lat.Sum(), h.LoadLat.Mean(), o.Loads
		for _, e := range tr.Events() {
			if e.Kind == "load" {
				got.span = e
			}
		}
		return got
	}
	async, blocking := run(true), run(false)
	if async.v != 77 || async.latN != 1 || async.oracleLoads != 1 || async.span.Dur == 0 {
		t.Fatalf("async load committed %+v, want value 77, one load.latency sample, one oracle load and a load span", async)
	}
	if async != blocking {
		t.Fatalf("async load committed %+v, blocking load %+v", async, blocking)
	}
}

// TestLoadAsyncVFastForward: while fast-forwarding, out-of-order loads
// apply at once on the issuing thread, as every fast-forwarded access
// does: each returns the stored value, Drain returns, and no cache holds
// a line before switchover.
func TestLoadAsyncVFastForward(t *testing.T) {
	const n = 16
	k, h, c := newOOOMachine()
	h.EnableFastForward(1<<62, nil)
	addr := func(i int) mem.Addr { return mem.Addr(0x4000 + i*mem.LineSize) }
	handles := make([]*cpu.LoadHandle, n)
	drained := false
	k.Go("t", func(p *sim.Proc) {
		for i := range n {
			c.Store(p, addr(i), uint64(100+i))
		}
		for i := range n {
			handles[i] = c.LoadAsyncV(p, addr(i))
		}
		c.Drain(p)
		drained = true
	})
	k.Run()
	if !drained {
		t.Fatalf("Drain did not return; blocked: %v", k.Blocked())
	}
	if got := h.FFAccesses(); got != 2*n {
		t.Fatalf("%d accesses fast-forwarded, want %d: %s", got, 2*n, h.FFString())
	}
	for i, lh := range handles {
		if lh.Value != uint64(100+i) {
			t.Errorf("load %d: value %d, want %d", i, lh.Value, 100+i)
		}
	}
	if lines := h.ValidLines(); lines != 0 {
		t.Errorf("%d cache lines valid before switchover, want none", lines)
	}
}
