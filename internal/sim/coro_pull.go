//go:build go1.23

package sim

import "iter"

// newCoro is iter.Pull (coro.go): a switch between caller and body is a
// direct runtime coroutine switch, with no trip through the Go
// scheduler.
func newCoro(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
