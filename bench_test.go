package tako

// Benchmarks of the paper's evaluation and of the simulator's hot paths.
// BenchmarkExperiments regenerates every table and figure that
// internal/exp registers, at quick scale, one sub-benchmark per
// experiment id. The ablation and extension benches cover design
// choices no experiment sweeps, and the observability, hierarchy and
// data-layout microbenches price the per-access hot path. Host time end
// to end is measured by bench/ (bench/README.md), not here.

import (
	"runtime"
	"testing"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/energy"
	"tako/internal/engine"
	"tako/internal/exp"
	"tako/internal/flat"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/morphs"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/system"
	"tako/internal/trace"
	"tako/internal/workloads"
)

// BenchmarkExperiments runs each registered experiment once per
// iteration: `go test -run '^$' -bench 'Experiments/^fig21$' .` times
// one figure.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tbl, err := e.Run(true)
				if err != nil {
					b.Fatal(err)
				}
				if len(tbl.Rows()) == 0 {
					b.Fatal("no rows produced")
				}
			}
		})
	}
}

func phiBenchParams() morphs.PHIParams {
	prm := morphs.DefaultPHIParams()
	prm.V, prm.E = 16*1024, 160*1024
	prm.Tiles, prm.Threads = 8, 8
	return prm
}

func hatsBenchParams() morphs.HATSParams {
	prm := morphs.DefaultHATSParams()
	prm.Tiles = 8
	return prm
}

// Ablation benches: täkō's design choices called out in DESIGN.md §6.

// BenchmarkAblationTRRIP compares trrîp's engine-fill demotion against
// plain RRIP on the decompression study (engine delta fetches pollute
// the caches without it, §5.2).
func BenchmarkAblationTRRIP(b *testing.B) {
	prm := morphs.DefaultDecompParams()
	prm.Tiles = 4
	for i := 0; i < b.N; i++ {
		trrip, err := morphs.RunDecompression(morphs.DecompTako, prm)
		if err != nil {
			b.Fatal(err)
		}
		plain := prm
		plain.PlainRRIP = true
		rrip, err := morphs.RunDecompression(morphs.DecompTako, plain)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(trrip.Cycles), "trrip-cycles")
		b.ReportMetric(float64(rrip.Cycles), "plain-rrip-cycles")
	}
}

// BenchmarkAblationPHIThreshold sweeps PHI's in-place/bin policy knob.
func BenchmarkAblationPHIThreshold(b *testing.B) {
	for _, th := range []int{1, 6, 9} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prm := phiBenchParams()
				prm.Threshold = th
				r, err := morphs.RunPHI(morphs.PHITako, prm)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.DRAMAccesses), "dram-accesses")
			}
		})
	}
}

func thName(t int) string { return "threshold-" + string(rune('0'+t)) }

// BenchmarkAblationDecoupling disables the L2 prefetcher for täkō-HATS:
// the phantom stream is no longer filled ahead of the core, so each
// onMiss lands on the critical path (§8.2's decoupling claim).
func BenchmarkAblationDecoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prm := hatsBenchParams()
		with, err := morphs.RunHATS(morphs.HATSTako, prm)
		if err != nil {
			b.Fatal(err)
		}
		prm.NoPrefetch = true
		without, err := morphs.RunHATS(morphs.HATSTako, prm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(with.Cycles), "decoupled-cycles")
		b.ReportMetric(float64(without.Cycles), "coupled-cycles")
	}
}

// BenchmarkExtensionHierPHI compares flat PHI against hierarchical PHI
// (footnote 3 / [95]): a PRIVATE combining buffer per tile forwarding
// into the SHARED Morph. Its advantage grows with core count; at quick
// scale the forwarding cost dominates, so the bench reports both.
func BenchmarkExtensionHierPHI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prm := phiBenchParams()
		flat, err := morphs.RunPHI(morphs.PHITako, prm)
		if err != nil {
			b.Fatal(err)
		}
		hier, err := morphs.RunPHI(morphs.PHIHier, prm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(flat.Cycles), "flat-cycles")
		b.ReportMetric(float64(hier.Cycles), "hier-cycles")
		b.ReportMetric(hier.Extra["updates.forwarded"], "forwarded")
	}
}

// Observability benches: the metrics registry and tracer live inside the
// hierarchy's hot paths, so the disabled configurations (nil handle, nil
// tracer) must cost a single predictable branch and zero allocations —
// these benches lock that in.

// BenchmarkMetricCounterInc measures the pre-resolved hot-path handle: one
// registry lookup at attach time, then pointer increments forever.
func BenchmarkMetricCounterInc(b *testing.B) {
	c := stats.NewRegistry().Counter("bench.hits", stats.L("tile", 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Value() != uint64(b.N) {
		b.Fatal("lost increments")
	}
}

// BenchmarkMetricCounterIncDisabled is the same increment through a nil
// handle — the metrics-off configuration every component runs with when no
// registry was attached.
func BenchmarkMetricCounterIncDisabled(b *testing.B) {
	var c *stats.Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkMetricHistogramObserve measures the log2-bucketed latency
// histogram's hot path (bits.Len64 + a few field updates, no allocation).
func BenchmarkMetricHistogramObserve(b *testing.B) {
	h := stats.NewRegistry().Histogram("bench.latency")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 1023)
	}
}

// BenchmarkMetricHistogramObserveDisabled observes through a nil handle.
func BenchmarkMetricHistogramObserveDisabled(b *testing.B) {
	var h *stats.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) & 1023)
	}
}

// BenchmarkMetricRegistryColdInc measures the name-based cold path (map
// lookup per increment) that hot paths avoid by pre-resolving handles.
func BenchmarkMetricRegistryColdInc(b *testing.B) {
	r := stats.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Inc("bench.hits")
	}
}

// BenchmarkTracerEmitSpan measures span emission into the ring buffer
// (no sink attached).
func BenchmarkTracerEmitSpan(b *testing.B) {
	tr := trace.New(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		tr.EmitSpan(c, c+40, "l2.0", "l2.miss", "")
	}
}

// BenchmarkTracerEmitSpanDisabled emits through a nil tracer — the
// tracing-off configuration wired into every hot path.
func BenchmarkTracerEmitSpanDisabled(b *testing.B) {
	var tr *trace.Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		tr.EmitSpan(c, c+40, "l2.0", "l2.miss", "")
	}
}

// BenchmarkTracerEmitSpanFiltered emits spans a kind filter rejects —
// the cost of tracing some kinds while a hot path emits another.
func BenchmarkTracerEmitSpanFiltered(b *testing.B) {
	tr := trace.New(4096)
	tr.Filter("cb.*")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := uint64(i)
		tr.EmitSpan(c, c+40, "l2.0", "l2.miss", "")
	}
}

// BenchmarkHierarchyThroughput measures raw simulator speed (simulated
// memory accesses per host-second) on a strided read loop, for simulator
// engineering rather than paper reproduction.
func BenchmarkHierarchyThroughput(b *testing.B) {
	k := sim.NewKernel()
	h := hier.New(k, hier.DefaultConfig(4), energy.NewMeter(), nil, nil)
	const accesses = 10000
	for i := 0; i < b.N; i++ {
		done := false
		k.Go("chase", func(p *sim.Proc) {
			for j := 0; j < accesses; j++ {
				h.Load(p, 0, mem.Addr(0x10_0000+(j%4096)*64))
			}
			done = true
		})
		k.Run()
		if !done {
			b.Fatal("load loop did not finish")
		}
	}
	b.ReportMetric(float64(accesses*b.N)/b.Elapsed().Seconds(), "sim-accesses/s")
}

// TestHierarchyAccessAllocs is the alloc-count regression gate for the
// whole per-access hot path (cache lookups, directory, lock tables,
// proc/future/line-buffer pools): once caches, pools, and table
// capacities are warm, a simulated access must be allocation-free. The
// 0.01 allocs/access budget absorbs incidental runtime allocations
// without letting a per-access allocation (1.0+) regress in.
func TestHierarchyAccessAllocs(t *testing.T) {
	k := sim.NewKernel()
	h := hier.New(k, hier.DefaultConfig(4), energy.NewMeter(), nil, nil)
	const accesses = 10000
	run := func() {
		k.Go("chase", func(p *sim.Proc) {
			for j := 0; j < accesses; j++ {
				h.Load(p, 0, mem.Addr(0x10_0000+(j%4096)*64))
			}
		})
		k.Run()
	}
	run() // warm: fills caches, grows tables, populates pools
	avg := testing.AllocsPerRun(5, run)
	if per := avg / accesses; per > 0.01 {
		t.Fatalf("steady-state access allocates %.4f allocs/access (%.0f per %d accesses), want ≤ 0.01",
			per, avg, accesses)
	}
}

// TestHardwareActivityAllocs is the alloc gate for the hierarchy's
// hardware activity, which no thread waits on: remote memory operations,
// prefetches, and the writeback timing of dirty L2 evictions, each run
// as kernel continuations. A warm loop of AtomicAdds interleaved with a
// strided store stream (whose L2 misses train the prefetcher, and which
// overflows the L2 with dirty lines) must stay within the same 0.01
// allocs/operation budget as a demand access.
func TestHardwareActivityAllocs(t *testing.T) {
	k := sim.NewKernel()
	h := hier.New(k, hier.DefaultConfig(4), energy.NewMeter(), nil, nil)
	const ops = 10000
	run := func() {
		k.Go("hw", func(p *sim.Proc) {
			for j := 0; j < ops/2; j++ {
				h.AtomicAdd(p, 0, mem.Addr(0x20_0000+(j%64)*64), 1)
				h.Store(p, 0, mem.Addr(0x100_0000+(j%8192)*64), uint64(j))
			}
			h.DrainRMOs(p, 0)
		})
		k.Run()
	}
	run() // warm: fills caches, grows tables, populates pools
	avg := testing.AllocsPerRun(5, run)
	for _, c := range []string{"rmo.issued", "prefetch.issued", "l2.writebacks"} {
		if h.Metrics.Get(c) == 0 {
			t.Fatalf("the loop caused no %s: the gate would not cover it", c)
		}
	}
	if per := avg / ops; per > 0.01 {
		t.Fatalf("hardware activity allocates %.4f allocs/operation (%.0f per %d operations), want ≤ 0.01",
			per, avg, ops)
	}
}

// TestMorphCallbackAllocs is the alloc gate for Morph callbacks. Each
// runs its queueing (its address chain, the callback buffer, a bitstream
// load) and its fabric compute time as kernel continuations on a pooled
// record, enters a pooled proc in place for the Morph's Fn, and hands
// its caller pooled futures, as does an eviction callback's line lock. A
// warm loop of stores over a phantom PRIVATE Morph's range, twice the
// L2's size, makes every store an onMiss fill and evicts dirty lines
// through onWriteback; it must allocate at most 0.01 times per callback.
func TestMorphCallbackAllocs(t *testing.T) {
	k := sim.NewKernel()
	meter := energy.NewMeter()
	rt := core.New(k, mem.NewSpace())
	cfg := hier.DefaultConfig(4)
	e := engine.New(k, engine.DefaultConfig(), 4, rt, meter)
	h := hier.New(k, cfg, meter, rt, e)
	e.AttachHierarchy(h)
	rt.Attach(h, e)
	var sum uint64
	spec := core.MorphSpec{
		Name: "gate",
		OnMiss: &core.Callback{Instrs: 8, CritPath: 3, Fn: func(ctx *engine.Ctx) {
			ctx.Line.SetWord(0, uint64(ctx.Addr))
		}},
		OnWriteback: &core.Callback{Instrs: 6, CritPath: 3, Fn: func(ctx *engine.Ctx) {
			sum += ctx.Line.Word(0)
		}},
	}
	var m *core.Morph
	k.Go("register", func(p *sim.Proc) {
		var err error
		if m, err = rt.RegisterPhantom(p, spec, core.Private, 2*uint64(cfg.L2Size), 0); err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if m == nil {
		t.FailNow()
	}
	run := func() {
		k.Go("stores", func(p *sim.Proc) {
			for a := m.Region.Base; a < m.Region.End(); a += mem.LineSize {
				h.Store(p, 0, a, uint64(a))
			}
		})
		k.Run()
	}
	run() // warm: fills the L2 with dirty phantom lines, populates pools
	miss, wb := h.Metrics.Get("cb.onMiss"), h.Metrics.Get("cb.onWriteback")
	before := e.TotalStats().Callbacks
	run()
	perRun := e.TotalStats().Callbacks - before
	if h.Metrics.Get("cb.onMiss") == miss || h.Metrics.Get("cb.onWriteback") == wb {
		t.Fatal("the loop ran no onMiss or no onWriteback callback: the gate would not cover it")
	}
	avg := testing.AllocsPerRun(5, run)
	if per := avg / float64(perRun); per > 0.01 {
		t.Fatalf("Morph callbacks allocate %.4f allocs/callback (%.0f per %d callbacks), want ≤ 0.01",
			per, avg, perRun)
	}
	if b := k.Blocked(); len(b) != 0 {
		t.Fatalf("blocked = %q", b)
	}
}

// TestFastForwardRunBytes is the allocation gate for analytical
// fast-forward. It runs the fast-forwarded scatter of bench/'s ff-scatter
// workload at its smoke scale (V=16K, E=128K, a 4K-access window, 16
// tiles) and bounds the bytes allocated across Run at 6 MB. The run
// allocates about 5 MB: the collector's tables, the reuse stack and the
// warm-state plans. Seeding that builds sets of planned lines (one sized
// for the L3's 131,072 lines) takes it past 11 MB.
func TestFastForwardRunBytes(t *testing.T) {
	const v, e, window, tiles = 16 << 10, 128 << 10, 4 << 10, 16
	cfg := system.Default(tiles)
	cfg.NoTako = true
	cfg.FastForward = uint64(v) + 2*uint64(e) - window
	s := system.New(cfg)
	es := workloads.EdgeStream{V: v, E: e, Seed: 1}
	ranks := s.Alloc("ranks", uint64(v)*8)
	edges := s.Alloc("edges", (uint64(e)*4+7)&^7)
	for tile := 0; tile < tiles; tile++ {
		tile := tile
		lo, hi := tile*v/tiles, (tile+1)*v/tiles
		s.Go(tile, "scatter", func(p *sim.Proc, _ *cpu.Core) {
			for src := lo; src < hi; src++ {
				contrib := s.H.Load(p, tile, ranks.Word(uint64(src)))%16 + 1
				end := es.Offset(src + 1)
				for i := es.Offset(src); i < end; i++ {
					s.H.Load(p, tile, edges.At(i*4&^7))
					s.H.AtomicAddLocal(p, tile, ranks.Word(es.Dst(i)), contrib)
				}
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Run()
	runtime.ReadMemStats(&after)
	if got := s.H.FFAccesses(); got != cfg.FastForward {
		t.Fatalf("fast-forwarded %d accesses, want %d", got, cfg.FastForward)
	}
	const bound = 6 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("the fast-forwarded run allocated %.2f MB, want ≤ %.0f MB", float64(got)/(1<<20), float64(bound)/(1<<20))
	}
}

// TestPHIRunAllocs is the whole-run allocation gate for a täkō
// workload: one PHI run (bench/'s phi-tako at its smoke scale: V=2K,
// E=20K, 4 tiles, CacheScale 128) must allocate at most 2,800 objects,
// graph generation, machine and reference check included. The run
// allocates about 2,350. A bin flush whose line escapes to the heap
// through StoreLineNT adds one object per flushed line, about 900 more.
func TestPHIRunAllocs(t *testing.T) {
	prm := morphs.DefaultPHIParams()
	prm.V, prm.E = 2<<10, 20<<10
	prm.Tiles, prm.Threads = 4, 4
	prm.CacheScale = 128
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := morphs.RunPHI(morphs.PHITako, prm); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const bound = 2800
	if got := after.Mallocs - before.Mallocs; got > bound {
		t.Fatalf("the PHI run allocated %d objects, want ≤ %d", got, bound)
	}
}

// BenchmarkHierarchyAccessAttributed prices transaction-level latency
// attribution against the same pointer-chase the alloc gates use: "off"
// is the production configuration (a nil check per transition), "attr"
// timestamps every state transition into per-(kind,state) dwell
// histograms, and "attr+slowest" additionally maintains the top-K
// slow-access ring with full state timelines. The delta between the
// sub-benchmarks is the observability tax.
func BenchmarkHierarchyAccessAttributed(b *testing.B) {
	const accesses = 10000
	for _, mode := range []struct {
		name    string
		attr    bool
		slowest int
	}{{"off", false, 0}, {"attr", true, 0}, {"attr+slowest", true, 8}} {
		b.Run(mode.name, func(b *testing.B) {
			k := sim.NewKernel()
			cfg := hier.DefaultConfig(4)
			cfg.Attribution = mode.attr
			cfg.SlowestK = mode.slowest
			h := hier.New(k, cfg, energy.NewMeter(), nil, nil)
			run := func() {
				k.Go("chase", func(p *sim.Proc) {
					for j := 0; j < accesses; j++ {
						h.Load(p, 0, mem.Addr(0x10_0000+(j%4096)*64))
					}
				})
				k.Run()
			}
			run() // warm caches, pools, and (when armed) timeline capacity
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(accesses*b.N)/b.Elapsed().Seconds(), "sim-accesses/s")
		})
	}
}

// Data-layout microbenches: the open-addressed table and the arena are
// the substrate under every access (directory entries, MSHR/lock
// entries, memory pages), so their churn costs are pinned here.

// BenchmarkDirectoryTableChurn models the shared directory's lifetime
// pattern: entries inserted on fill, mutated while shared, deleted on
// eviction — a steady insert/delete churn over a long-lived table, the
// case tombstone-based deletion degrades on and backshift deletion keeps
// flat.
func BenchmarkDirectoryTableChurn(b *testing.B) {
	type dirEntry struct {
		sharers uint64
		owner   int8
	}
	var t flat.Table[dirEntry]
	const live = 4096 // resident lines at steady state
	for i := 0; i < live; i++ {
		t.Put(uint64(i)*64, dirEntry{sharers: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := uint64(i%live) * 64
		neu := uint64(live+i%live) * 64
		t.Delete(old)
		e := t.Put(neu, dirEntry{sharers: 1 << (i % 4)})
		e.owner = int8(i % 4)
		t.Delete(neu)
		t.Put(old, dirEntry{sharers: 1})
	}
	b.ReportMetric(float64(4*b.N)/b.Elapsed().Seconds(), "table-ops/s")
}

// BenchmarkMSHRTableLockUnlock models the per-tile MSHR/lock table's
// per-access cycle: GetOrPut on the line address (acquire), Ref (the
// unlock-time lookup), Delete (release). Unlike the directory, entries
// are short-lived — most accesses create and destroy one.
func BenchmarkMSHRTableLockUnlock(b *testing.B) {
	type lockEntry struct {
		seq uint64
		fut uintptr
	}
	var t flat.Table[lockEntry]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la := uint64(0x10_0000 + (i%512)*64)
		e, _ := t.GetOrPut(la, lockEntry{})
		e.seq++
		if r := t.Ref(la); r != nil {
			t.Delete(la)
		}
	}
	b.ReportMetric(float64(3*b.N)/b.Elapsed().Seconds(), "table-ops/s")
}

// BenchmarkArenaAccess measures the page-granular memory arena on a
// strided word mix spanning many pages — the DRAM backing-store path
// every fill and writeback takes.
func BenchmarkArenaAccess(b *testing.B) {
	m := mem.NewMemory()
	const span = 1 << 24 // 16 MiB: well past one page, sparse pages touched
	for a := uint64(0); a < span; a += 4096 {
		m.WriteU64(mem.Addr(a), a) // pre-fault the pages
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		a := mem.Addr(uint64(i*8192+(i%8)*8) % span)
		m.WriteU64(a, uint64(i))
		sink += m.ReadU64(a)
	}
	_ = sink
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "word-ops/s")
}

// BenchmarkArenaLineCopy measures full-line reads/writes through the
// arena (the granularity fills and writebacks actually move).
func BenchmarkArenaLineCopy(b *testing.B) {
	m := mem.NewMemory()
	var line mem.Line
	for w := 0; w < mem.WordsPerLine; w++ {
		line.SetWord(w, uint64(w)*0x9e3779b97f4a7c15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		la := mem.Addr((i % 65536) * 64)
		m.WriteLine(la, &line)
		m.PeekLine(la, &line)
	}
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "line-ops/s")
}
