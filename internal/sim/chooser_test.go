package sim

import "testing"

// fixedChooser replays a list of picks, then defaults to 0.
type fixedChooser struct {
	picks []int
	i     int
	calls int
}

func (c *fixedChooser) Choose(n int) int {
	c.calls++
	if c.i >= len(c.picks) {
		return 0
	}
	p := c.picks[c.i]
	c.i++
	return p
}

func tieKernel(got *[]int) *Kernel {
	k := NewKernel()
	for i := 0; i < 4; i++ {
		i := i
		k.At(5, func() { *got = append(*got, i) })
	}
	k.At(9, func() { *got = append(*got, 99) })
	return k
}

// TestChooserDefaultOrderPreserved: a chooser that always picks 0 must
// reproduce the kernel's FIFO schedule exactly.
func TestChooserDefaultOrderPreserved(t *testing.T) {
	var got []int
	k := tieKernel(&got)
	k.SetChooser(&fixedChooser{})
	k.Run()
	want := []int{0, 1, 2, 3, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("default-choice schedule diverged: got %v want %v", got, want)
		}
	}
}

// TestChooserReorders: picking index 2 of a 4-way event tie runs that
// event first and keeps the remaining events' relative order; picking
// the second of two same-cycle proc wakes runs that proc first.
func TestChooserReorders(t *testing.T) {
	t.Run("events", func(t *testing.T) {
		var got []int
		k := tieKernel(&got)
		ch := &fixedChooser{picks: []int{2}}
		k.SetChooser(ch)
		k.Run()
		want := []int{2, 0, 1, 3, 99}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reordered schedule: got %v want %v", got, want)
			}
		}
		if ch.calls == 0 {
			t.Fatal("chooser never consulted")
		}
	})
	t.Run("procs", func(t *testing.T) {
		k := NewKernel()
		var got []string
		for _, name := range []string{"a", "b"} {
			k.Go(name, func(p *Proc) {
				p.Sleep(5)
				got = append(got, name)
			})
		}
		// The starts tie at cycle 0 (pick a); b then starts alone; the
		// wakes tie at cycle 5, and the chooser picks b's.
		ch := &fixedChooser{picks: []int{0, 1}}
		k.SetChooser(ch)
		k.Run()
		if len(got) != 2 || got[0] != "b" || got[1] != "a" {
			t.Fatalf("wake order %v, want [b a]", got)
		}
		if ch.calls != 2 {
			t.Fatalf("chooser consulted %d times, want 2 (the start tie and the wake tie)", ch.calls)
		}
	})
}

// TestChooserSingletonNotConsulted: with no tie there is no choice.
func TestChooserSingletonNotConsulted(t *testing.T) {
	k := NewKernel()
	ch := &fixedChooser{picks: []int{1, 1, 1}}
	k.SetChooser(ch)
	k.At(1, func() {})
	k.At(2, func() {})
	k.Run()
	if ch.calls != 0 {
		t.Fatalf("chooser consulted %d times for singleton steps", ch.calls)
	}
}

// TestProcPanicRecoverable: a panic inside a Proc must surface on the
// driver's goroutine as a *ProcPanic that the driver can recover, and
// Shutdown must unwind the remaining parked processes.
func TestProcPanicRecoverable(t *testing.T) {
	k := NewKernel()
	k.Go("bystander", func(p *Proc) {
		p.Sleep(100) // parked when the panic fires
		p.Sleep(100)
	})
	k.Go("victim", func(p *Proc) {
		p.Sleep(1)
		panic("model assertion")
	})
	var pp *ProcPanic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("proc panic did not propagate to the driver")
			}
			var ok bool
			if pp, ok = r.(*ProcPanic); !ok {
				t.Fatalf("recovered %T, want *ProcPanic", r)
			}
		}()
		k.Run()
	}()
	if pp.Proc != "victim" {
		t.Fatalf("panic attributed to %q, want victim", pp.Proc)
	}
	if pp.Value != "model assertion" {
		t.Fatalf("panic value %v", pp.Value)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	k.Shutdown() // must not hang or panic with "bystander" parked mid-sleep
}

// TestEventPanicOnProcGoroutine: an event a proc schedules just before it
// blocks runs on the driver, never on the proc's coroutine, so its panic
// reaches the driver with its original value, not wrapped as a
// ProcPanic; the proc stays parked rather than unwound, and Shutdown
// unwinds both it and a bystander still parked.
func TestEventPanicOnProcGoroutine(t *testing.T) {
	k := NewKernel()
	k.Go("bystander", func(p *Proc) { p.Sleep(100) })
	k.Go("runner", func(p *Proc) {
		p.Sleep(5)
		// The event schedules into the past; it runs on the driver once
		// the Sleep below suspends this proc.
		k.After(0, func() { k.At(0, func() {}) })
		p.Sleep(1)
	})
	func() {
		defer func() {
			r := recover()
			if r != "sim: scheduling event in the past" {
				t.Fatalf("recovered %T %v, want the original panic value", r, r)
			}
		}()
		k.Run()
	}()
	if b := k.Blocked(); len(b) != 2 {
		t.Fatalf("blocked = %v after the panic, want bystander and runner", b)
	}
	k.Shutdown() // must not hang or panic
	if b := k.Blocked(); len(b) != 0 {
		t.Fatalf("blocked = %v after Shutdown, want none", b)
	}
}

// TestShutdownAfterCleanRun: Shutdown on a completed kernel is a no-op
// beyond releasing pooled goroutines.
func TestShutdownAfterCleanRun(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Go("p", func(p *Proc) { p.Sleep(3); ran = true })
	k.Run()
	k.Shutdown()
	if !ran {
		t.Fatal("proc did not run")
	}
}
