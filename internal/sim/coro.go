package sim

// A coroutine runs a body in turns with its caller; only one of the two
// runs at a time. newCoro returns its two caller-side calls:
//
//   - resume runs the body until it suspends or returns;
//   - kill makes the pending suspend return false and waits for the
//     body to return (a body never resumed never runs).
//
// The body's own call, suspend, hands control back to the caller and
// reports true when resumed, false when killed: the body must then
// return, and every later suspend returns false at once. Once the body
// has returned, resume and kill do nothing. The body must not panic;
// Proc's body recovers its task's panics itself.
//
// Builds on Go 1.23 or later use runtime coroutines (coro_pull.go).
// newChanCoro is the Go 1.22 implementation, kept in this untagged file
// so tests can run it on any toolchain.

// newChanCoro implements the coroutine contract with a goroutine per
// body and a channel handoff per switch.
func newChanCoro(body func(suspend func() bool)) (resume, kill func()) {
	wake := make(chan bool) // true: run on; false: return
	parked := make(chan struct{})
	var started, killed, finished bool
	suspend := func() bool {
		if killed {
			return false
		}
		parked <- struct{}{}
		return <-wake
	}
	run := func(on bool) {
		if finished {
			return
		}
		killed = !on
		if !started {
			if killed {
				finished = true
				return
			}
			started = true
			go func() {
				body(suspend)
				finished = true
				parked <- struct{}{}
			}()
		} else {
			wake <- on
		}
		<-parked
	}
	return func() { run(true) }, func() { run(false) }
}
