package dram

import (
	"testing"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

func newDRAM(cfg Config) (*sim.Kernel, *DRAM, *energy.Meter) {
	k := sim.NewKernel()
	meter := energy.NewMeter()
	d := New(k, cfg, mem.NewMemory(), meter)
	return k, d, meter
}

// completions issues each request from its own proc, which waits on the
// request's pooled future at once, and returns the cycle each request
// completed at.
func completions(k *sim.Kernel, reqs ...func() *sim.Future) []sim.Cycle {
	at := make([]sim.Cycle, len(reqs))
	for i, req := range reqs {
		k.Go("req", func(p *sim.Proc) {
			p.Wait(req())
			at[i] = p.Now()
		})
	}
	k.Run()
	return at
}

func TestReadLatency(t *testing.T) {
	k, d, _ := newDRAM(DefaultConfig())
	var l mem.Line
	var f *sim.Future
	if at := completions(k, func() *sim.Future { f = d.ReadLine(0x1000, &l); return f }); at[0] != 100 {
		t.Fatalf("read completed at %d, want 100", at[0])
	}
	// The completion event returned the future to the kernel's pool.
	if f.Done() || f.When() != 0 {
		t.Fatalf("recycled future reads Done %v, When %d; want false, 0", f.Done(), f.When())
	}
}

func TestDataRoundTrip(t *testing.T) {
	k, d, _ := newDRAM(DefaultConfig())
	var w mem.Line
	w.SetWord(0, 0xabcd)
	d.WriteLine(0x40, &w)
	var r mem.Line
	d.ReadLine(0x40, &r)
	k.Run()
	if r.Word(0) != 0xabcd {
		t.Fatalf("readback = %x", r.Word(0))
	}
}

func TestBandwidthSerializesOneController(t *testing.T) {
	cfg := Config{Controllers: 1, Latency: 100, CyclesPerLine: 13}
	k, d, _ := newDRAM(cfg)
	var l mem.Line
	read := func(a mem.Addr) func() *sim.Future {
		return func() *sim.Future { return d.ReadLine(a, &l) }
	}
	at := completions(k, read(0x00), read(0x40), read(0x80))
	if at[0] != 100 || at[1] != 113 || at[2] != 126 {
		t.Fatalf("completion times %v, want [100 113 126]", at)
	}
}

func TestInterleavingSpreadsControllers(t *testing.T) {
	k, d, _ := newDRAM(DefaultConfig())
	var l mem.Line
	// Four consecutive lines hit four different controllers: all
	// complete at the unloaded latency.
	var reqs []func() *sim.Future
	for i := 0; i < 4; i++ {
		reqs = append(reqs, func() *sim.Future { return d.ReadLine(mem.Addr(i*64), &l) })
	}
	for i, at := range completions(k, reqs...) {
		if at != 100 {
			t.Fatalf("line %d completed at %d, want 100 (parallel ctrls)", i, at)
		}
	}
}

func TestEnergyAndStats(t *testing.T) {
	k, d, meter := newDRAM(DefaultConfig())
	var l mem.Line
	d.ReadLine(0, &l)
	d.WriteLine(64, &l)
	k.Run()
	if d.Reads != 1 || d.Writes != 1 || d.Accesses() != 2 {
		t.Fatalf("reads=%d writes=%d", d.Reads, d.Writes)
	}
	if meter.Count(energy.DRAMAccess) != 2 {
		t.Fatalf("dram energy events = %d", meter.Count(energy.DRAMAccess))
	}
	if meter.Count(energy.NVMWrite) != 0 {
		t.Fatal("non-NVM write charged NVM energy")
	}
}

func TestNVMAccounting(t *testing.T) {
	k, d, meter := newDRAM(DefaultConfig())
	r := mem.Region{Name: "nvm", Base: 0x1000, Size: 4096}
	d.MarkNVM(r)
	var l mem.Line
	d.WriteLine(0x1000, &l)
	d.WriteLine(0x0040, &l) // volatile
	k.Run()
	if meter.Count(energy.NVMWrite) != 1 {
		t.Fatalf("nvm writes = %d, want 1", meter.Count(energy.NVMWrite))
	}
	if !d.IsNVM(0x1fff) || d.IsNVM(0x2000) {
		t.Fatal("IsNVM bounds wrong")
	}
}

func TestPhaseBreakdown(t *testing.T) {
	k, d, _ := newDRAM(DefaultConfig())
	var l mem.Line
	d.SetPhase("edge")
	d.ReadLine(0, &l)
	d.ReadLine(64, &l)
	d.SetPhase("vertex")
	d.WriteLine(128, &l)
	k.Run()
	if d.PhaseAccesses["edge"] != 2 || d.PhaseAccesses["vertex"] != 1 {
		t.Fatalf("phase accesses = %v", d.PhaseAccesses)
	}
	if d.Phase() != "vertex" {
		t.Fatalf("phase = %q", d.Phase())
	}
}
