// Package prof wires the standard runtime profilers into the CLIs:
// -cpuprofile / -memprofile / -blockprofile / -mutexprofile flags map
// onto runtime/pprof's CPU, heap, blocking, and mutex-contention
// profiles, written as files for `go tool pprof`. Block and mutex
// profiles show where the parallel scheduler's workers and the
// capture/export locks contend.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins the requested profiles and returns a stop function that
// finishes and writes them. Empty names disable the corresponding
// profile. Block and mutex profiling are sampled at full rate while
// armed (SetBlockProfileRate(1) / SetMutexProfileFraction(1)) and reset
// to off by stop. Call stop at the end of the run, before any os.Exit on
// the success path.
func Start(cpu, mem, block, mutex string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if block != "" {
			runtime.SetBlockProfileRate(0)
			if err := writeLookup("block", block); err != nil {
				return err
			}
		}
		if mutex != "" {
			runtime.SetMutexProfileFraction(0)
			if err := writeLookup("mutex", mutex); err != nil {
				return err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// writeLookup writes a named runtime profile ("block", "mutex") to path.
func writeLookup(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
