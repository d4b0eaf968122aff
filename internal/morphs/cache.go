package morphs

import (
	"time"

	"tako/internal/system"
	"tako/internal/tlb"
)

// The memoized run cache: one entry per (study, variant, params)
// simulation, kept in the run window (system.Memo). The paper's report
// regenerates paired figures (fig6/fig7, fig13/fig14, fig16/fig17,
// fig19/fig20) from the exact same runs, and the sensitivity sweeps
// re-run baselines other figures already simulated; within one window
// each such simulation executes once and every later request replays
// the stored Result — including its observability record, which is
// submitted again for the requesting experiment, so -bench reports and
// op-count goldens are unchanged by the sharing.
//
// Outside a window every call re-simulates, which is what tests and
// `go test -bench` rely on. The CLIs arm one window per command,
// so a run lives from its first execution until the command ends: a
// skipped experiment (takoreport -skip fig6) only changes which figure
// of a pair simulates first.
//
// Keys compare params by value. HATSParams carries a *tlb.Config, which
// would compare by pointer identity — hatsCacheKey flattens it into the
// key so equal configurations hit regardless of allocation. The window
// fixes the system.Options every run in it is built under, so they stay
// out of the key.

type runKey struct {
	study   string
	variant string
	params  any // normalized, comparable params value
}

// cachedRun memoizes one variant's simulation. On a miss it executes
// run and stamps the Result with the measured wall-clock; on a hit it
// returns the stored Result marked Cached with zero wall-clock, so
// submission accounts the simulation cost exactly once.
func cachedRun(study, variant string, params any, run func() (Result, error)) (Result, error) {
	v, hit, err := system.Memo(runKey{study, variant, params}, func() (any, error) {
		start := time.Now()
		r, err := run()
		r.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		return r, err
	})
	r := v.(Result)
	if hit {
		r.Cached, r.WallMS = true, 0
	}
	return r, err
}

// SubmitResults enters each result's run record into the active capture
// window, in argument order. Drivers call it after parallel fan-outs
// join, so capture logs are deterministic at any -j.
func SubmitResults(rs ...Result) {
	for _, r := range rs {
		system.Submit(r.Record, r.WallMS, r.Cached)
	}
}

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
