package system

import (
	"errors"

	"tako/internal/hier"
)

// Options is the run configuration: every setting a CLI flag can change
// that can also change a simulated result. A run window fixes it
// (CaptureConfig.Options) and New applies it to every machine built in
// the window, so Default, Scaled and hier.DefaultConfig stay pure
// functions of their arguments.
//
// The worker count (CaptureConfig.Workers, -j) cannot change a result
// and stays outside it. Fast-forward is not an option either but a
// property of one machine (Config.FastForward): a figure compares
// machines, and a process-wide warmup would reach only those it can
// fast-forward.
type Options struct {
	// Verify arms per-access coherence-freshness assertions and the
	// hierarchy-wide invariant checker every verifyCheckEvery events.
	Verify bool `json:"verify"`
	// Attribution arms transaction-level latency attribution; SlowestK > 0
	// also keeps each run's K slowest demand accesses.
	Attribution bool `json:"attr"`
	SlowestK    int  `json:"slowest"`
}

// verifyCheckEvery is the invariant-checker period Verify arms.
const verifyCheckEvery = 128

// SetDefaultSharded does nothing: the simulator has one engine. Its only
// caller is bench/workloads.go, whose phi-tako-sharded workload therefore
// runs the same machine as phi-tako. It goes with that workload in the
// benchmark change listed in ROADMAP.md.
func SetDefaultSharded(bool, int) {}

// Validate rejects combinations no machine can honour.
func (o Options) Validate() error {
	if o.SlowestK < 0 {
		return errors.New("-slowest must not be negative")
	}
	return nil
}

// observe arms the observability fields on a hierarchy config. It only
// turns checks on: a config that armed something itself keeps it.
func (o Options) observe(h *hier.Config) {
	if o.Verify {
		h.FreshChecks = true
		if h.SelfCheckEvery == 0 {
			h.SelfCheckEvery = verifyCheckEvery
		}
	}
	if o.Attribution {
		h.Attribution = true
		if h.SlowestK == 0 {
			h.SlowestK = o.SlowestK
		}
	}
}
