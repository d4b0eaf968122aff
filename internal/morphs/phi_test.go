package morphs

import (
	"testing"

	"tako/internal/system"
)

func smallPHIParams() PHIParams {
	p := DefaultPHIParams()
	p.V, p.E = 16*1024, 160*1024
	p.Tiles, p.Threads = 8, 8
	return p
}

func TestPHIShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	system.StartCapture(system.CaptureConfig{Options: system.Options{Verify: true}})
	res, err := RunPHIAll(smallPHIParams())
	system.StopCapture()
	if err != nil {
		t.Fatal(err)
	}
	base := res[PHIBaseline]
	ub := res[PHIUB]
	tako := res[PHITako]
	ideal := res[PHIIdeal]
	for _, r := range []Result{base, ub, tako, ideal} {
		t.Logf("%-9s %8d cycles  %12.0f pJ  dram=%6d  phases=%v  extra[inplace]=%v binned=%v",
			r.Variant, r.Cycles, r.EnergyPJ, r.DRAMAccesses, r.DRAMPhase,
			r.Extra["updates.inplace"], r.Extra["updates.binned"])
	}
	t.Logf("speedups: ub=%.2fx tako=%.2fx ideal=%.2fx; energy saving tako=%.0f%%",
		ub.Speedup(base), tako.Speedup(base), ideal.Speedup(base), 100*tako.EnergySaving(base))

	// Fig 13 shape: täkō > UB > baseline; ideal ≥ täkō (close).
	if ub.Speedup(base) < 1.2 {
		t.Errorf("UB speedup %.2fx, want ≥1.2x", ub.Speedup(base))
	}
	if tako.Cycles >= ub.Cycles {
		t.Errorf("täkō (%d) should beat UB (%d)", tako.Cycles, ub.Cycles)
	}
	gap := (float64(tako.Cycles) - float64(ideal.Cycles)) / float64(ideal.Cycles)
	if gap > 0.10 {
		t.Errorf("täkō %.1f%% from ideal, want close (onWriteback off critical path)", 100*gap)
	}
	// Fig 14 shape: DRAM accesses baseline > UB > täkō.
	if ub.DRAMAccesses >= base.DRAMAccesses {
		t.Errorf("UB DRAM (%d) should be below baseline (%d)", ub.DRAMAccesses, base.DRAMAccesses)
	}
	if tako.DRAMAccesses >= ub.DRAMAccesses {
		t.Errorf("täkō DRAM (%d) should be below UB (%d)", tako.DRAMAccesses, ub.DRAMAccesses)
	}
	// PHI's policy actually exercises both paths.
	if tako.Extra["updates.inplace"] == 0 || tako.Extra["updates.binned"] == 0 {
		t.Error("PHI policy did not exercise both in-place and binned paths")
	}
	// Energy: täkō saves vs baseline.
	if tako.EnergySaving(base) <= 0 {
		t.Errorf("täkō energy saving %.0f%%", 100*tako.EnergySaving(base))
	}
}
