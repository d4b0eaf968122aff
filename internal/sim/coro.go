package sim

// A coroutine runs a body in turns with its caller; only one of the two
// runs at a time. newCoro has iter.Pull's signature, over struct{}
// values, and this much of its contract, which is all Proc uses:
//
//   - next resumes the body until it yields or returns, and reports
//     whether it yielded;
//   - stop kills the body: it makes the pending yield return false and
//     waits for the body to return (a body never resumed never runs);
//   - yield, the body's own call, suspends it, handing control back to
//     the caller, and reports true when resumed, false when killed: the
//     body must then return, and every later yield returns false at
//     once.
//
// Once the body has returned, next and stop do nothing. The body must
// not panic; Proc's body recovers its task's panics itself.
//
// Builds on Go 1.23 or later use iter.Pull itself (coro_pull.go), so
// the driver's next and a proc's yield are runtime coroutine switches
// with no wrapper between. newChanCoro is the Go 1.22 implementation,
// kept in this untagged file so tests can run it on any toolchain.

// newChanCoro implements the coroutine contract with a goroutine per
// body and a channel handoff per switch.
func newChanCoro(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	wake := make(chan bool) // true: run on; false: return
	parked := make(chan struct{})
	var started, stopped, finished bool
	yield := func(struct{}) bool {
		if stopped {
			return false
		}
		parked <- struct{}{}
		return <-wake
	}
	run := func(on bool) bool {
		if finished {
			return false
		}
		stopped = !on
		if !started {
			if stopped {
				finished = true
				return false
			}
			started = true
			go func() {
				body(yield)
				finished = true
				parked <- struct{}{}
			}()
		} else {
			wake <- on
		}
		<-parked
		return !finished
	}
	return func() (struct{}, bool) { return struct{}{}, run(true) }, func() { run(false) }
}
