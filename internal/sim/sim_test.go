package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelOrdersEventsByTime(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestKernelFIFOAtSameCycle(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.At(5, func() {})
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10, func() { ran++ })
	k.At(20, func() { ran++ })
	k.RunUntil(15)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if k.Now() != 15 {
		t.Fatalf("now = %d, want 15", k.Now())
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

// TestKernelRunUntilWithProcs: a proc sleeping past the limit hands
// control back at the limit, so RunUntil returns with the clock at the
// limit and that proc still parked, and a later Run wakes it at its own
// cycle.
func TestKernelRunUntilWithProcs(t *testing.T) {
	k := NewKernel()
	var woke []Cycle
	for _, d := range []Cycle{10, 40} {
		k.Go("sleeper", func(p *Proc) {
			p.Sleep(d)
			woke = append(woke, p.Now())
		})
	}
	k.RunUntil(25)
	if k.Now() != 25 {
		t.Fatalf("now = %d after RunUntil(25), want 25", k.Now())
	}
	if len(woke) != 1 || woke[0] != 10 {
		t.Fatalf("woke at %v by the limit, want [10]", woke)
	}
	if b := k.Blocked(); len(b) != 1 {
		t.Fatalf("blocked = %v at the limit, want the 40-cycle sleeper", b)
	}
	k.Run()
	if len(woke) != 2 || woke[1] != 40 || k.Now() != 40 {
		t.Fatalf("woke at %v, now = %d; want [10 40] and 40", woke, k.Now())
	}
}

// TestProcRespawnedByOwnEvent: an event a proc scheduled just before it
// finished can spawn onto that very proc (the pool hands back the proc
// that just finished), and when the driver starts it, its suspended
// coroutine goes straight on to the new task.
func TestProcRespawnedByOwnEvent(t *testing.T) {
	k := NewKernel()
	var second *Proc
	var ranAt Cycle
	first := k.Go("first", func(p *Proc) {
		k.After(0, func() {
			second = k.Go("second", func(p *Proc) {
				p.Sleep(3)
				ranAt = p.Now()
			})
		})
	})
	k.Run()
	if second != first {
		t.Fatal("the respawn did not reuse the proc that just finished")
	}
	if second.Name() != "second" || !second.Done() || ranAt != 3 {
		t.Fatalf("respawned proc %q done=%v ran its task at %d, want second, true, 3",
			second.Name(), second.Done(), ranAt)
	}
	if b := k.Blocked(); len(b) != 0 {
		t.Fatalf("blocked = %v, want none", b)
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func(seed int64) []uint64 {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		var trace []uint64
		var add func(depth int)
		add = func(depth int) {
			if depth > 4 {
				return
			}
			n := rng.Intn(3) + 1
			for i := 0; i < n; i++ {
				d := Cycle(rng.Intn(50))
				k.After(d, func() {
					trace = append(trace, k.Now())
					add(depth + 1)
				})
			}
		}
		add(0)
		k.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var t1, t2 Cycle
	k.Go("sleeper", func(p *Proc) {
		t1 = p.Now()
		p.Sleep(100)
		t2 = p.Now()
	})
	k.Run()
	if t1 != 0 || t2 != 100 {
		t.Fatalf("sleep timing: t1=%d t2=%d", t1, t2)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel()
	var order []string
	mk := func(name string, period Cycle) {
		k.Go(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(period)
				order = append(order, name)
			}
		})
	}
	mk("a", 10)
	mk("b", 15)
	k.Run()
	// a wakes at 10,20,30; b at 15,30,45. At t=30 b's wake event was
	// scheduled first (at t=15 < t=20), so b precedes a.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFutureWakesWaiters(t *testing.T) {
	k := NewKernel()
	f := NewFuture(k)
	var woke []Cycle
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) {
			p.Wait(f)
			woke = append(woke, p.Now())
		})
	}
	k.At(50, f.Complete)
	k.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d waiters, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 50 {
			t.Fatalf("waiter woke at %d, want 50", w)
		}
	}
	if !f.Done() || f.When() != 50 {
		t.Fatalf("future state: done=%v when=%d", f.Done(), f.When())
	}
}

func TestFutureWaitAfterComplete(t *testing.T) {
	k := NewKernel()
	f := CompletedFuture(k)
	ran := false
	k.Go("w", func(p *Proc) {
		p.Wait(f)
		ran = true
		if p.Now() != 0 {
			t.Errorf("completed future advanced time to %d", p.Now())
		}
	})
	k.Run()
	if !ran {
		t.Fatal("process never ran")
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := NewKernel()
	f := NewFuture(k)
	f.Complete()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double complete")
		}
	}()
	f.Complete()
}

func TestBlockedReportsDeadlock(t *testing.T) {
	k := NewKernel()
	f := NewFuture(k) // never completed
	k.Go("stuck", func(p *Proc) { p.Wait(f) })
	k.Go("fine", func(p *Proc) { p.Sleep(1) })
	k.Run()
	blocked := k.Blocked()
	if len(blocked) != 1 || blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", blocked)
	}
}

// Property: for any batch of (delay, id) pairs, the kernel executes them
// sorted by (time, insertion order).
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		type rec struct {
			when Cycle
			seq  int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, Cycle(d)
			k.At(d, func() { got = append(got, rec{k.Now(), i}) })
		}
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		sorted := sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].when != got[j].when {
				return got[i].when < got[j].when
			}
			return got[i].seq < got[j].seq
		})
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
