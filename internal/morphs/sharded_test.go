package morphs

import (
	"encoding/json"
	"fmt"
	"testing"

	"tako/internal/sim"
	"tako/internal/system"
)

// The sharded determinism battery: every täkō case study, hosted on the
// tile-sharded engine, must produce byte-identical results at any
// worker count. Each leg runs its study sequenced (workers ≤ 1) and at
// 2, 4, and 8 workers and compares full result fingerprints — cycles,
// energy, instruction and DRAM counts, phase attribution, and every
// study-specific Extra metric.

// shardedFingerprint renders everything about a Result that must be
// worker-count-invariant. Record and WallMS are host-side observability
// and excluded.
func shardedFingerprint(t *testing.T, r Result) string {
	t.Helper()
	fp := struct {
		Cycles       sim.Cycle
		EnergyPJ     float64
		CoreInstrs   uint64
		EngineInstrs uint64
		DRAMAccesses uint64
		DRAMPhase    map[string]uint64
		Mispredicts  uint64
		Extra        map[string]float64
	}{r.Cycles, r.EnergyPJ, r.CoreInstrs, r.EngineInstrs, r.DRAMAccesses,
		r.DRAMPhase, r.Mispredicts, r.Extra}
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// shardedWidthSweep runs one study leg at each worker count and fails on
// the first fingerprint divergence.
func shardedWidthSweep(t *testing.T, run func() (Result, error)) {
	t.Helper()
	defer system.SetOptions(system.CurrentOptions())
	var ref string
	for _, workers := range []int{1, 2, 4, 8} {
		system.SetDefaultSharded(true, workers)
		r, err := run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := shardedFingerprint(t, r)
		if ref == "" {
			ref = fp
			continue
		}
		if fp != ref {
			t.Fatalf("workers=%d diverged:\n got %s\nwant %s", workers, fp, ref)
		}
	}
}

func TestShardedDecompDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultDecompParams()
	prm.NumValues, prm.NumIndices = 4096, 2048
	shardedWidthSweep(t, func() (Result, error) { return runDecompression(DecompTako, prm) })
}

func TestShardedLayoutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultLayoutParams()
	prm.Structs, prm.Passes = 4096, 2
	shardedWidthSweep(t, func() (Result, error) { return runLayout(LayoutTako, prm) })
}

func TestShardedPHIDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultPHIParams()
	prm.V, prm.E = 2048, 16384
	for _, v := range []PHIVariant{PHITako, PHIHier} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			shardedWidthSweep(t, func() (Result, error) { return runPHI(v, prm) })
		})
	}
}

func TestShardedCCDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultCCParams()
	prm.V, prm.E, prm.Rounds = 2048, 16384, 2
	shardedWidthSweep(t, func() (Result, error) { return RunCC(CCTako, prm) })
}

func TestShardedHATSDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultHATSParams()
	prm.V, prm.E = 2048, 16384
	shardedWidthSweep(t, func() (Result, error) { return runHATS(HATSTako, prm) })
}

func TestShardedNVMDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultNVMParams(256)
	prm.Transactions = 64
	shardedWidthSweep(t, func() (Result, error) { return runNVM(NVMTako, prm) })
}

func TestShardedSideChannelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultSideChannelParams()
	prm.Rounds = 3
	shardedWidthSweep(t, func() (Result, error) {
		r, err := RunSideChannel(SCTako, prm)
		if err != nil {
			return Result{}, err
		}
		if !r.Detected {
			return Result{}, fmt.Errorf("täkō victim failed to detect the attack")
		}
		// Fold the attack outcome into the fingerprinted Extra map so
		// detection timing diverging across worker counts fails the leg.
		r.Extra["detection.cycle"] = float64(r.DetectionCycle)
		r.Extra["true.positives"] = float64(r.TruePositives)
		r.Extra["false.positives"] = float64(r.FalsePositives)
		return r.Result, nil
	})
}

// TestShardedNVMCrashDeterminism pins the crash harness on the sharded
// engine: RunUntil stops the epoch loop at the crash cycle, recovery
// replays the journal, and the committed-transaction count is identical
// at every worker count.
func TestShardedNVMCrashDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultNVMParams(256)
	prm.Transactions = 256
	defer system.SetOptions(system.CurrentOptions())
	ref := -1
	for _, workers := range []int{1, 2, 4, 8} {
		system.SetDefaultSharded(true, workers)
		committed, err := RunNVMCrash(prm, 60000)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == -1 {
			if committed <= 0 || committed >= prm.Transactions {
				t.Fatalf("crash at a boundary: committed %d/%d transactions (pick a crash cycle mid-run)",
					committed, prm.Transactions)
			}
			ref = committed
			continue
		}
		if committed != ref {
			t.Fatalf("workers=%d committed %d transactions, workers=1 committed %d", workers, committed, ref)
		}
	}
}
