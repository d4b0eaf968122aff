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
		newCoro func(body func(suspend func() bool)) (resume, kill func())
	}{
		{"chan", newChanCoro},
		{"build", newCoro},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("resume runs the body until it suspends", func(t *testing.T) {
				steps := 0
				resume, kill := impl.newCoro(func(suspend func() bool) {
					for {
						steps++
						if !suspend() {
							return
						}
					}
				})
				for want := 1; want <= 3; want++ {
					resume()
					if steps != want {
						t.Fatalf("after resume %d the body ran %d steps", want, steps)
					}
				}
				kill()
			})
			t.Run("kill ends a suspended body", func(t *testing.T) {
				var got []bool
				returned := false
				resume, kill := impl.newCoro(func(suspend func() bool) {
					got = append(got, suspend(), suspend())
					returned = true
				})
				resume()
				kill()
				if !returned {
					t.Fatal("kill returned before the body did")
				}
				if len(got) != 2 || got[0] || got[1] {
					t.Fatalf("suspend returned %v after kill, want [false false]", got)
				}
			})
			t.Run("a body killed before it ran never runs", func(t *testing.T) {
				ran := false
				resume, kill := impl.newCoro(func(func() bool) { ran = true })
				kill()
				resume()
				if ran {
					t.Fatal("the body ran after kill")
				}
			})
			t.Run("a returned body ignores resume and kill", func(t *testing.T) {
				runs := 0
				resume, kill := impl.newCoro(func(func() bool) { runs++ })
				resume()
				resume()
				kill()
				resume()
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
