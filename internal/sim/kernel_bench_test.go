package sim

import (
	"math/rand"
	"testing"
)

// TestHeapOrdersLikeReference drives the 4-ary heap with random
// schedules and checks events pop in (time, insertion-sequence) order —
// the determinism contract the old container/heap implementation
// provided.
func TestHeapOrdersLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := NewKernel()
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			k.push(event{when: Cycle(rng.Intn(32)), seq: uint64(i), fn: func() {}})
		}
		var lastWhen Cycle
		var lastSeq uint64
		for i := 0; i < n; i++ {
			e := k.pop()
			if i > 0 && (e.when < lastWhen || (e.when == lastWhen && e.seq < lastSeq)) {
				t.Fatalf("trial %d: popped (%d,%d) after (%d,%d)", trial, e.when, e.seq, lastWhen, lastSeq)
			}
			lastWhen, lastSeq = e.when, e.seq
		}
		if len(k.queue) != 0 {
			t.Fatalf("queue not drained: %d left", len(k.queue))
		}
	}
}

// TestPopZeroesVacatedSlots checks pop clears the backing array behind
// the shrinking queue, so completed events' closures (and whatever they
// captured) are GC-able rather than pinned until the kernel dies.
func TestPopZeroesVacatedSlots(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 100; i++ {
		big := make([]byte, 1024)
		k.After(Cycle(i), func() { _ = big })
	}
	k.Run()
	backing := k.queue[:cap(k.queue)]
	for i, e := range backing {
		if e.fn != nil || e.proc != nil || e.future != nil || e.when != 0 || e.seq != 0 {
			t.Fatalf("slot %d not zeroed after pop: %+v", i, e)
		}
	}
}

// TestScheduleAllocsPerEvent is the alloc-count regression gate for the
// kernel hot path: scheduling and executing a pre-built callback must
// not allocate (the old container/heap path boxed every event into an
// interface{}), and waking a parked process must not allocate a closure.
func TestScheduleAllocsPerEvent(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the queue's backing array so growth isn't counted.
	for i := 0; i < 1024; i++ {
		k.After(1, fn)
	}
	k.Run()
	const events = 1000
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < events; i++ {
			k.After(Cycle(i%7), fn)
		}
		k.Run()
	})
	if perEvent := avg / events; perEvent > 0.01 {
		t.Fatalf("scheduling allocates %.3f allocs/event, want 0", perEvent)
	}
}

// TestFutureWaiterSliceReuse checks completed futures return their
// waiter arrays to the kernel pool and later futures reuse them.
func TestFutureWaiterSliceReuse(t *testing.T) {
	k := NewKernel()
	k.Go("waiter", func(p *Proc) {
		// Warm-up: the first future allocates its waiter array...
		f := NewFuture(k)
		f.CompleteAt(10)
		p.Wait(f)
		// ...then steady-state future churn must stop allocating waiter
		// slices (one Future alloc per iteration is outside this loop).
		futures := make([]*Future, 64)
		for i := range futures {
			futures[i] = NewFuture(k)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for _, f := range futures {
				*f = Future{k: k}
				f.CompleteAt(p.Now() + 1)
				p.Wait(f)
			}
		})
		if allocs > 1 {
			t.Errorf("future wait/complete cycle allocates %.1f per 64 futures, want ≤1", allocs)
		}
	})
	k.Run()
}

// TestPooledSpawnAllocs is the alloc gate for the spawn path: once the
// proc pool is warm, spawning a GoArgs proc that sleeps once and finishes
// allocates nothing (no Proc, coroutine, closure or name).
func TestPooledSpawnAllocs(t *testing.T) {
	k := NewKernel()
	body := func(p *Proc, d, _ uint64) { p.Sleep(d) }
	k.GoArgs("pooled", body, 1, 0)
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		k.GoArgs("pooled", body, 1, 0)
		k.Run()
	})
	k.Release()
	if allocs != 0 {
		t.Fatalf("a pooled spawn allocates %.2f times, want 0", allocs)
	}
}

// BenchmarkKernelEventChain measures raw event throughput and
// allocs/event on a pure callback chain (no processes): the hot loop is
// push, pop, and the callback itself.
func BenchmarkKernelEventChain(b *testing.B) {
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.After(1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(1, step)
	k.Run()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelFanout measures a wider queue: 64 interleaved event
// chains, so push/pop traverse a few heap levels per event.
func BenchmarkKernelFanout(b *testing.B) {
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.After(Cycle(1+n%13), step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 64 && i < b.N; i++ {
		k.After(Cycle(i), step)
	}
	k.Run()
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkProcSleepWake measures the wake path of a proc that is its own
// next event: Sleep schedules the wake, and block pops it and returns
// with no coroutine switch. BenchmarkProcHandoff prices the switch.
func BenchmarkProcSleepWake(b *testing.B) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	k.Run()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "wakes/s")
}

// BenchmarkFutureCompleteWait measures the future rendezvous both sides:
// one process completing futures another waits on.
func BenchmarkFutureCompleteWait(b *testing.B) {
	k := NewKernel()
	k.Go("producer-consumer", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := NewFuture(k)
			f.CompleteAt(p.Now() + 1)
			p.Wait(f)
		}
	})
	k.Run()
}

// BenchmarkProcHandoff measures the proc-to-proc switch: two procs wake
// on alternate cycles, so at every wake one proc suspends to the driver
// and the driver resumes the other, two coroutine switches.
func BenchmarkProcHandoff(b *testing.B) {
	k := NewKernel()
	wakes := 0
	pingPong := func(p *Proc) {
		for wakes < b.N {
			wakes++
			p.Sleep(2)
		}
	}
	k.Go("even", pingPong)
	k.Go("odd", func(p *Proc) { p.Sleep(1); pingPong(p) })
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(wakes)/b.Elapsed().Seconds(), "wakes/s")
}

// BenchmarkProcSpawn prices a pooled spawn from start to finish: GoArgs,
// the start event resuming the proc, one Sleep, and the finish that
// returns the proc to the pool and suspends it.
func BenchmarkProcSpawn(b *testing.B) {
	k := NewKernel()
	body := func(p *Proc, d, _ uint64) { p.Sleep(d) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.GoArgs("spawn", body, 1, 0)
		k.Run()
	}
	b.StopTimer()
	k.Release()
}
