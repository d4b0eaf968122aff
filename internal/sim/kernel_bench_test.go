package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestQueueOrdersLikeReference drives the kernel with random schedules
// and checks that events run in (cycle, push order), against a
// reference sort of every push. It pushes every kind of target: At
// callbacks, Tasks (AfterTask), *Future completions (CompleteAt), and
// procs' starts and wakes. Delays cover the same cycle, the next, the
// near wheel, the rest of the wheel and the far heap; events and procs
// push more from inside, and the driver pushes between RunUntil
// horizons, so the clock reaches new cycles by an event, by a proc's
// in-place wake and by RunUntil. Each event but a completion records the
// kernel's event count when it runs, and a completion is checked by its
// future's completion cycle and by the place it leaves every other event
// in.
func TestQueueOrdersLikeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delay := func() Cycle {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return Cycle(rng.Intn(16))
		case 3:
			return Cycle(rng.Intn(wheelSlots))
		}
		return wheelSlots + Cycle(rng.Intn(3*wheelSlots+1))
	}
	type push struct {
		when Cycle
		id   int
	}
	type run struct {
		id    int
		event uint64 // the kernel's event count as it ran
	}
	for trial := 0; trial < 100; trial++ {
		k := NewKernel()
		budget := 50 + rng.Intn(500)
		var pushed []push
		var ran []run
		completions := map[*Future]Cycle{}
		var schedule func()
		schedule = func() {
			id, when := len(pushed), k.Now()+delay()
			pushed = append(pushed, push{when, id})
			body := func() {
				ran = append(ran, run{id, k.Events()})
				for rng.Intn(2) == 0 && len(pushed) < budget {
					schedule()
				}
			}
			switch rng.Intn(3) {
			case 0:
				k.At(when, body)
			case 1:
				k.AfterTask(when-k.Now(), callback(body))
			case 2:
				f := NewFuture(k)
				completions[f] = when
				f.CompleteAt(when)
			}
		}
		for i := rng.Intn(3); i > 0; i-- {
			pushed = append(pushed, push{k.Now(), len(pushed)}) // the start
			k.Go("sleeper", func(p *Proc) {
				for len(pushed) < budget {
					id, d := len(pushed), delay()
					pushed = append(pushed, push{p.Now() + d, id})
					p.Sleep(d)
					ran = append(ran, run{id, k.Events()})
					if rng.Intn(4) == 0 {
						schedule()
					}
				}
			})
		}
		for len(pushed) < budget {
			for i := 1 + rng.Intn(3); i > 0 && len(pushed) < budget; i-- {
				schedule()
			}
			horizon := k.Now() + delay()
			k.RunUntil(horizon)
			if k.Now() != horizon {
				t.Fatalf("trial %d: RunUntil(%d) left the clock at %d", trial, horizon, k.Now())
			}
		}
		k.Run()
		if k.Events() != uint64(len(pushed)) {
			t.Fatalf("trial %d: the kernel ran %d events for %d pushes", trial, k.Events(), len(pushed))
		}
		want := append([]push(nil), pushed...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].id < want[j].id
		})
		for _, r := range ran {
			if w := want[r.event-1]; w.id != r.id {
				t.Fatalf("trial %d: event %d ran push %d, want push %d (cycle %d)", trial, r.event, r.id, w.id, w.when)
			}
		}
		for f, when := range completions {
			if !f.Done() || f.When() != when {
				t.Fatalf("trial %d: a future due at cycle %d completed %v at %d", trial, when, f.Done(), f.When())
			}
		}
	}
}

// TestFarEventsRunBeforeLaterPushes: events pushed at cycle T while it
// is 1024 or more cycles out wait in the far heap. Once the clock comes
// within 1023 cycles of T, pushes go straight to T's wheel slot, and
// they must run after the far ones, all in push order, whether the clock
// got there by an event, by a proc's wake or by RunUntil.
func TestFarEventsRunBeforeLaterPushes(t *testing.T) {
	const T = 5000
	for _, how := range []string{"event", "proc", "RunUntil"} {
		t.Run(how, func(t *testing.T) {
			k := NewKernel()
			var got []int
			record := func(i int) func() { return func() { got = append(got, i) } }
			k.At(T, record(0))
			lastFar := func() { k.At(T, record(1)) } // at T-1024: still far
			near := func() {                         // at T-1023: the wheel
				k.At(T, record(2))
				k.After(wheelSlots-1, record(3))
			}
			switch how {
			case "event":
				k.At(T-wheelSlots, lastFar)
				k.At(T-wheelSlots+1, near)
			case "proc":
				k.Go("pusher", func(p *Proc) {
					p.Sleep(T - wheelSlots)
					lastFar()
					p.Sleep(1)
					near()
				})
			case "RunUntil":
				k.RunUntil(T - wheelSlots)
				lastFar()
				k.RunUntil(T - wheelSlots + 1)
				near()
			}
			k.Run()
			if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 || k.Now() != T {
				t.Fatalf("ran %v, clock at %d; want [0 1 2 3] at %d", got, k.Now(), T)
			}
		})
	}
}

// TestPopZeroesVacatedSlots checks that running events leaves no
// reference to them in the wheel's node arena or in the far heap's
// backing array, so completed events' closures (and whatever they
// captured) are GC-able rather than pinned until the kernel dies.
func TestPopZeroesVacatedSlots(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 100; i++ {
		big := make([]byte, 1024)
		k.After(Cycle(i*37), func() { _ = big }) // wheel and far heap
	}
	k.Run()
	if len(k.nodes) < 2 || cap(k.far) == 0 {
		t.Fatalf("the test used %d nodes and %d far entries, want both", len(k.nodes)-1, cap(k.far))
	}
	for i, n := range k.nodes {
		if n.target != nil {
			t.Fatalf("node %d still holds its event after it ran", i)
		}
	}
	for i, e := range k.far[:cap(k.far)] {
		if e.target != nil || e.when != 0 || e.seq != 0 {
			t.Fatalf("far entry %d not zeroed after pop: %+v", i, e)
		}
	}
}

// TestScheduleAllocsPerEvent is the alloc-count regression gate for the
// kernel hot path: scheduling and executing a pre-built callback, a
// Task or a future's completion must not allocate (the old
// container/heap path boxed every event into an interface{}), and waking
// a parked process must not allocate a closure.
func TestScheduleAllocsPerEvent(t *testing.T) {
	fn := func() {}
	task := callback(fn)
	const events = 1000
	futures := make([]*Future, events)
	for name, schedule := range map[string]func(k *Kernel, i int){
		"After":     func(k *Kernel, i int) { k.After(Cycle(i%7), fn) },
		"AfterTask": func(k *Kernel, i int) { k.AfterTask(Cycle(i%7), task) },
		"CompleteAt": func(k *Kernel, i int) {
			futures[i].done = false
			futures[i].CompleteAt(k.Now() + Cycle(i%7))
		},
	} {
		k := NewKernel()
		for i := range futures {
			futures[i] = NewFuture(k)
		}
		// Warm the queue's backing array so growth isn't counted.
		for i := 0; i < events; i++ {
			schedule(k, i)
		}
		k.Run()
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < events; i++ {
				schedule(k, i)
			}
			k.Run()
		})
		if perEvent := avg / events; perEvent > 0.01 {
			t.Fatalf("%s: scheduling allocates %.3f allocs/event, want 0", name, perEvent)
		}
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
// proc pool is warm, spawning a proc with a long-lived task that sleeps
// once and finishes allocates nothing (no Proc, coroutine, closure or
// name).
func TestPooledSpawnAllocs(t *testing.T) {
	k := NewKernel()
	body := func(p *Proc) { p.Sleep(1) }
	k.Go("pooled", body)
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		k.Go("pooled", body)
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
// chains, 1 to 13 cycles apart.
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

// mixDelays are push delays shaped like a PHI run's (ROADMAP item 2):
// of every 100 pushes, 33 are for the same cycle, 29 for the next, 34
// for 2 to 15 cycles out, 3 for 16 to 1023 and 1 past the wheel. They
// are shuffled once, with a fixed seed, so each chain sees a mix.
var mixDelays = func() []Cycle {
	d := make([]Cycle, 0, 100)
	for i := 0; i < 33; i++ {
		d = append(d, 0)
	}
	for i := 0; i < 29; i++ {
		d = append(d, 1)
	}
	for i := 0; i < 34; i++ {
		d = append(d, Cycle(2+i%14))
	}
	d = append(d, 40, 150, 400, 1500)
	rand.New(rand.NewSource(1)).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}()

// BenchmarkKernelMix measures callbacks at a PHI run's push delays and
// mean queue depth, about 28 events: 28 interleaved event chains, each
// taking its delays from mixDelays. It sits between EventChain (depth 1)
// and Fanout (depth 64).
func BenchmarkKernelMix(b *testing.B) {
	const chains = 28
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			k.After(mixDelays[n%len(mixDelays)], step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < chains && i < b.N; i++ {
		k.After(mixDelays[i], step)
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

// BenchmarkContinuationChain is BenchmarkProcHandoff with continuations
// in place of procs: two chains of functions wake on alternate cycles,
// each queueing itself two cycles on, with no coroutine switch at all.
func BenchmarkContinuationChain(b *testing.B) {
	k := NewKernel()
	wakes := 0
	var tick func()
	tick = func() {
		if wakes < b.N {
			wakes++
			k.After(2, tick)
		}
	}
	k.After(0, tick)
	k.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(wakes)/b.Elapsed().Seconds(), "wakes/s")
}

// BenchmarkProcSpawn prices a pooled spawn from start to finish: Go with
// a long-lived task, the start event resuming the proc, one Sleep, and
// the finish that returns the proc to the pool and suspends it.
func BenchmarkProcSpawn(b *testing.B) {
	k := NewKernel()
	body := func(p *Proc) { p.Sleep(1) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Go("spawn", body)
		k.Run()
	}
	b.StopTimer()
	k.Release()
}
