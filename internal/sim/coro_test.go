package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestCoroContract runs the coroutine contract (coro.go) against the
// channel implementation and against the newCoro this build uses.
func TestCoroContract(t *testing.T) {
	impls := []struct {
		name    string
		newCoro func(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func())
	}{
		{"chan", newChanCoro},
		{"build", newCoro},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("resume runs the body until it suspends", func(t *testing.T) {
				steps := 0
				next, stop := impl.newCoro(func(yield func(struct{}) bool) {
					for steps < 3 {
						steps++
						if !yield(struct{}{}) {
							return
						}
					}
				})
				for want := 1; want <= 3; want++ {
					if _, ok := next(); !ok || steps != want {
						t.Fatalf("next %d reported %v after %d steps, want true after %d", want, ok, steps, want)
					}
				}
				if _, ok := next(); ok {
					t.Fatal("next reported a yield from a body that returned")
				}
				stop()
			})
			t.Run("kill ends a suspended body", func(t *testing.T) {
				var got []bool
				returned := false
				next, stop := impl.newCoro(func(yield func(struct{}) bool) {
					got = append(got, yield(struct{}{}), yield(struct{}{}))
					returned = true
				})
				next()
				stop()
				if !returned {
					t.Fatal("stop returned before the body did")
				}
				if len(got) != 2 || got[0] || got[1] {
					t.Fatalf("yield returned %v after stop, want [false false]", got)
				}
			})
			t.Run("a body killed before it ran never runs", func(t *testing.T) {
				ran := false
				next, stop := impl.newCoro(func(func(struct{}) bool) { ran = true })
				stop()
				next()
				if ran {
					t.Fatal("the body ran after stop")
				}
			})
			t.Run("a returned body ignores resume and kill", func(t *testing.T) {
				runs := 0
				next, stop := impl.newCoro(func(func(struct{}) bool) { runs++ })
				next()
				next()
				stop()
				next()
				if runs != 1 {
					t.Fatalf("the body ran %d times, want 1", runs)
				}
			})
		})
	}
}

// TestNoGoroutineLeak: every proc is a goroutine under either coroutine
// implementation, so a proc the kernel fails to kill leaks one, and a
// report run builds thousands of kernels in one process. The goroutine
// count must return to its starting value once a kernel is released or
// shut down.
func TestNoGoroutineLeak(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"Run and Release", func(t *testing.T) {
			k := NewKernel()
			for i := 0; i < 8; i++ {
				k.Go("sleeper", func(p *Proc) { p.Sleep(Cycle(i)) })
			}
			k.Run()
			k.Release()
		}},
		{"ProcPanic and Shutdown", func(t *testing.T) {
			k := NewKernel()
			k.Go("bystander", func(p *Proc) { p.Sleep(100) })
			k.Go("victim", func(p *Proc) {
				p.Sleep(1)
				k.Go("unstarted", func(*Proc) { t.Error("a proc started after the panic") })
				panic("model assertion")
			})
			func() {
				defer func() {
					if _, ok := recover().(*ProcPanic); !ok {
						t.Error("the victim's panic did not reach the driver as a *ProcPanic")
					}
				}()
				k.Run()
			}()
			k.Shutdown()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			start := runtime.NumGoroutine()
			c.run(t)
			// An exiting goroutine counts until it has finished.
			n := runtime.NumGoroutine()
			for i := 0; i < 200 && n > start; i++ {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > start {
				t.Fatalf("%d goroutines after the kernel was done, %d before", n, start)
			}
		})
	}
}
