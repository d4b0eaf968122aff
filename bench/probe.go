package main

import (
	"math/rand"
	"sync"
	"time"
)

// Host speed on a shared machine drifts by 10-40% over tens of seconds,
// as other tenants load the cores, caches and memory the simulator uses
// (README.md, "Calibration"). So before every rep the parent times a
// fixed probe, and each rep's run time is reported at reference host
// speed: measured × probeRefS / probe.
//
// The probe runs, on two goroutines at once so that it samples both of
// the reference host's cores, the work the simulator's host time goes
// to: goroutine handoffs over channels (sim.Proc), dependent loads over
// a table the size of an L2 (cache lookups), and map inserts and
// lookups. It is the benchmark's code, not the simulator's, so no
// change to the simulator can move it.

// probeRefS is the probe's median on the reference host, the 2-core
// container the README's calibration sets were measured on.
const probeRefS = 0.066

// probeChain is one random cycle through 64K entries (256 KB), built on
// the first probe: child processes, which share this binary, never pay
// for it in their setup.
var probeChain []uint32

// hostProbe runs the probe and returns its wall time in seconds.
func hostProbe() float64 {
	if probeChain == nil {
		perm := rand.New(rand.NewSource(1)).Perm(1 << 16)
		probeChain = make([]uint32, len(perm))
		for i, p := range perm {
			probeChain[p] = uint32(perm[(i+1)%len(perm)])
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, 2)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = probeWork()
		}(i)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// probeWork is one goroutine's share of the probe. It returns a value
// derived from all its work, so none of it can be optimised away.
func probeWork() uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	var v uint64
	for i := 0; i < 20000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)

	x := uint32(0)
	for i := 0; i < 1<<21; i++ {
		x = probeChain[x]
	}

	m := map[uint64]*[4]uint64{}
	for i := uint64(0); i < 100000; i++ {
		m[i*2654435761] = &[4]uint64{i}
	}
	for i := uint64(0); i < 200000; i++ {
		if e, ok := m[i*2654435761]; ok {
			v += e[0]
		}
	}
	return v + uint64(x)
}
