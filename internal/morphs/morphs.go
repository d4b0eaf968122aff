// Package morphs implements the paper's five case studies (§3, §8) —
// in-cache decompression, PHI commutative scatter-updates, HATS
// decoupled graph traversal, NVM transactions, and prime+probe
// side-channel detection — each as a täkō Morph plus the software
// baselines the paper compares against. Every study verifies its
// functional result against a reference implementation; timing and
// energy come from the modeled system.
package morphs

import (
	"fmt"
	"maps"

	"tako/internal/sim"
	"tako/internal/system"
)

// Result captures one variant's run for the experiment reports.
type Result struct {
	Study   string
	Variant string

	Cycles       sim.Cycle
	EnergyPJ     float64
	CoreInstrs   uint64
	EngineInstrs uint64
	DRAMAccesses uint64
	DRAMPhase    map[string]uint64
	Mispredicts  uint64

	// Extra holds study-specific metrics (e.g. decompression counts,
	// detection flags).
	Extra map[string]float64

	// Record is the run's observability record (nil when no capture is
	// armed). It is built by the run itself and entered into the shared
	// capture log by the driver, in deterministic variant order, once
	// any parallel fan-out has joined. Treat as immutable: cached
	// results share one record across figures.
	Record *system.RunRecord
	// WallMS is the host wall-clock the simulation took; 0 when Cached.
	WallMS float64
	// Cached marks a Result served by the memoized run cache.
	Cached bool
}

// collect snapshots system-wide metrics into a Result after a run.
func collect(s *system.System, study, variant string, cycles sim.Cycle) Result {
	phase := maps.Clone(s.H.DRAM.PhaseAccesses)
	extra := map[string]float64{}
	for _, name := range []string{
		"l1.hits", "l1.misses", "l2.hits", "l2.misses",
		"l3.hits", "l3.misses", "cb.onMiss", "cb.onEviction", "cb.onWriteback",
		"prefetch.issued", "rmo.hits", "rmo.misses",
	} {
		if v := s.H.Metrics.Get(name); v != 0 {
			extra[name] = float64(v)
		}
	}
	extra["load.mean"] = s.H.LoadLat.Mean()
	extra["load.stddev"] = s.H.LoadLat.Stddev()
	rec := system.LabelRun(s, study+"/"+variant, s.Ops())
	return Result{
		Record:       rec,
		Study:        study,
		Variant:      variant,
		Cycles:       cycles,
		EnergyPJ:     s.Meter.TotalPJ(),
		CoreInstrs:   s.TotalInstrs(),
		EngineInstrs: s.EngineInstrs(),
		DRAMAccesses: s.H.DRAMAccesses(),
		DRAMPhase:    phase,
		Mispredicts:  s.Mispredicts(),
		Extra:        extra,
	}
}

// Speedup returns baseline cycles / r cycles.
func (r Result) Speedup(baseline Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// EnergySaving returns the fractional energy reduction vs the baseline.
func (r Result) EnergySaving(baseline Result) float64 {
	if baseline.EnergyPJ == 0 {
		return 0
	}
	return 1 - r.EnergyPJ/baseline.EnergyPJ
}

func (r Result) String() string {
	return fmt.Sprintf("%s/%s: %d cycles, %.0f pJ, %d core + %d engine instrs, %d DRAM",
		r.Study, r.Variant, r.Cycles, r.EnergyPJ, r.CoreInstrs, r.EngineInstrs, r.DRAMAccesses)
}
