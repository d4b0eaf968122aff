// Package sched is the parallel run scheduler for the simulation
// drivers. Every simulated system is a fully independent deterministic
// kernel, so experiment fan-outs (variants of one study, sweep points of
// one sensitivity axis) can run on separate OS threads; sched provides
// the bounded worker pool they share and guarantees results come back in
// task order, so tables, goldens, and bench reports are byte-identical
// to a sequential run.
//
// Each simulation kernel stays single-threaded internally; sched only
// decides how many kernels run at once.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested pool width: n itself when positive,
// otherwise GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// inFlight counts tasks currently executing across all Map calls.
var inFlight atomic.Int64

// Active returns how many scheduled tasks are executing right now —
// the live-introspection view of pool utilization.
func Active() int { return int(inFlight.Load()) }

// runTask executes one task under the in-flight counter.
func runTask(i int, fn func(i int) error) error {
	inFlight.Add(1)
	defer inFlight.Add(-1)
	return fn(i)
}

// Map runs fn(0..n-1) across a pool of workers goroutines (resolved by
// Workers) and waits for all of them. With one worker (or one task) it
// runs inline on the caller's goroutine, which keeps -j 1 byte-for-byte
// the sequential loop. All tasks run to completion even when one
// fails; the returned error is the failure with the lowest index, so the
// error surfaced does not depend on scheduling order.
func Map(workers, n int, fn func(i int) error) error {
	errs := mapAll(workers, n, fn)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapResults runs fn(0..n-1) across a pool of workers goroutines and
// returns the results in task order. Like Map, the first error by index
// wins.
func MapResults[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Map(workers, n, func(i int) error {
		r, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func mapAll(workers, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = runTask(i, fn)
		}
		return errs
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runTask(i, fn)
			}
		}()
	}
	wg.Wait()
	return errs
}
