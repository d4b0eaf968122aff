package morphs

import (
	"sync"
	"sync/atomic"
	"time"

	"tako/internal/system"
	"tako/internal/tlb"
)

// The memoized run cache: one entry per (study, variant, params)
// simulation. The paper's report regenerates paired figures (fig6/fig7,
// fig13/fig14, fig16/fig17, fig19/fig20) from the exact same runs, and
// the sensitivity sweeps re-run baselines other figures already
// simulated; with the cache enabled each such simulation executes once
// and every later request replays the stored Result — including its
// observability record, which the requesting driver re-submits into its
// own capture window so -bench reports and op-count goldens are
// unchanged by the sharing.
//
// The cache is off by default: tests and `go test -bench` rely on every
// call re-simulating. The CLI drivers (takoreport, takosim) opt in. The
// cache is process-global and never evicts, so a skipped experiment
// (takoreport -skip fig6) neither removes nor invalidates runs a later
// figure shares; whichever figure of a pair runs first simulates, the
// rest reuse.
//
// Keys compare params by value. HATSParams carries a *tlb.Config, which
// would compare by pointer identity — hatsCacheKey flattens it into the
// key so equal configurations hit regardless of allocation. The key also
// holds the process-wide system.Options the run was built under, so a
// run never replays into a machine configured differently (-verify,
// -attr); the worker count and the cache switch cannot change a result
// and stay out of it.

type runKey struct {
	study   string
	variant string
	params  any // normalized, comparable params value
	opts    system.Options
}

var (
	cacheEnabled atomic.Bool
	cacheMu      sync.Mutex
	runCache     = map[runKey]Result{}

	// simsExecuted counts simulations actually run (cache misses plus
	// all runs while the cache is disabled) — the probe tests use it to
	// assert paired figures share one simulation.
	simsExecuted atomic.Uint64
)

// SetRunCache enables or disables run memoization and returns the
// previous setting. Enabling does not clear previously cached runs.
func SetRunCache(on bool) bool { return cacheEnabled.Swap(on) }

// ResetRunCache drops every cached run (tests; never needed by the
// drivers — params and options fully determine a run, so entries cannot
// go stale within a process).
func ResetRunCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	runCache = map[runKey]Result{}
}

// SimsExecuted returns the number of simulations executed (not served
// from the cache) so far in this process.
func SimsExecuted() uint64 { return simsExecuted.Load() }

// cachedRun memoizes one variant's simulation. On a miss it executes
// run, stamps the Result with the measured wall-clock, and stores it; on
// a hit it returns the stored Result marked Cached with zero wall-clock,
// so submission accounts the simulation cost exactly once.
func cachedRun(study, variant string, params any, run func() (Result, error)) (Result, error) {
	if !cacheEnabled.Load() {
		simsExecuted.Add(1)
		return run()
	}
	key := runKey{study: study, variant: variant, params: params, opts: system.CurrentOptions()}
	cacheMu.Lock()
	r, ok := runCache[key]
	cacheMu.Unlock()
	if ok {
		r.Cached = true
		r.WallMS = 0
		return r, nil
	}
	simsExecuted.Add(1)
	start := time.Now()
	r, err := run()
	if err != nil {
		return r, err
	}
	r.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	r.Cached = false
	cacheMu.Lock()
	runCache[key] = r
	cacheMu.Unlock()
	return r, nil
}

// submitResults enters each result's run record into the active capture
// window, in argument order. Drivers call it after parallel fan-outs
// join, so capture logs are deterministic at any -j.
func submitResults(rs ...Result) {
	for _, r := range rs {
		system.Submit(r.Record, r.WallMS, r.Cached)
	}
}

// SubmitResults is submitResults for drivers outside this package (the
// sensitivity sweeps and fig21, which call single-variant runners
// directly).
func SubmitResults(rs ...Result) { submitResults(rs...) }

// hatsKey is HATSParams flattened into a comparable value: the RTLB
// pointer is dereferenced so equal sweep configurations share runs.
type hatsKey struct {
	p       HATSParams
	rtlb    tlb.Config
	hasRTLB bool
}

func hatsCacheKey(p HATSParams) any {
	k := hatsKey{}
	if p.RTLB != nil {
		k.rtlb, k.hasRTLB = *p.RTLB, true
	}
	p.RTLB = nil
	k.p = p
	return k
}
