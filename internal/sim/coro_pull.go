//go:build go1.23

package sim

import "iter"

// newCoro implements the coroutine contract (coro.go) with iter.Pull: a
// switch between caller and body is a direct runtime coroutine switch,
// with no trip through the Go scheduler.
func newCoro(body func(suspend func() bool)) (resume, kill func()) {
	next, stop := iter.Pull(func(yield func(struct{}) bool) {
		body(func() bool { return yield(struct{}{}) })
	})
	return func() { next() }, stop
}
