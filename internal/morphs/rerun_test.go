package morphs

import (
	"encoding/json"
	"fmt"
	"testing"

	"tako/internal/sim"
)

// The rerun determinism battery. Each leg runs one täkō case study twice
// in one process and compares full result fingerprints — cycles, energy,
// instruction and DRAM counts, phase attribution, and every
// study-specific Extra metric. Equal fingerprints pin that a second
// machine built in the same process reproduces the first (no state leaks
// from one run into the next).

// resultFingerprint renders everything about a Result that a rerun must
// reproduce. Record and WallMS are host-side observability and excluded.
func resultFingerprint(t *testing.T, r Result) string {
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

// rerun runs one study leg twice and fails if the two fingerprints
// differ.
func rerun(t *testing.T, run func() (Result, error)) {
	t.Helper()
	ref, err := run()
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	got, err := run()
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if fp, want := resultFingerprint(t, got), resultFingerprint(t, ref); fp != want {
		t.Fatalf("rerun diverged:\n got %s\nwant %s", fp, want)
	}
}

func TestShardedDecompDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultDecompParams()
	prm.NumValues, prm.NumIndices = 4096, 2048
	rerun(t, func() (Result, error) { return runDecompression(DecompTako, prm) })
}

func TestShardedLayoutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultLayoutParams()
	prm.Structs, prm.Passes = 4096, 2
	rerun(t, func() (Result, error) { return runLayout(LayoutTako, prm) })
}

func TestShardedPHIDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultPHIParams()
	prm.V, prm.E = 2048, 16384
	for _, v := range []PHIVariant{PHITako, PHIHier} {
		t.Run(string(v), func(t *testing.T) {
			rerun(t, func() (Result, error) { return runPHI(v, prm) })
		})
	}
}

func TestShardedCCDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultCCParams()
	prm.V, prm.E, prm.Rounds = 2048, 16384, 2
	rerun(t, func() (Result, error) { return RunCC(CCTako, prm) })
}

func TestShardedHATSDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultHATSParams()
	prm.V, prm.E = 2048, 16384
	rerun(t, func() (Result, error) { return runHATS(HATSTako, prm) })
}

func TestShardedNVMDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultNVMParams(256)
	prm.Transactions = 64
	rerun(t, func() (Result, error) { return runNVM(NVMTako, prm) })
}

func TestShardedSideChannelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultSideChannelParams()
	prm.Rounds = 3
	rerun(t, func() (Result, error) {
		r, err := RunSideChannel(SCTako, prm)
		if err != nil {
			return Result{}, err
		}
		if !r.Detected {
			return Result{}, fmt.Errorf("täkō victim failed to detect the attack")
		}
		// Fold the attack outcome into the fingerprinted Extra map so
		// detection timing diverging between runs fails the leg.
		r.Extra["detection.cycle"] = float64(r.DetectionCycle)
		r.Extra["true.positives"] = float64(r.TruePositives)
		r.Extra["false.positives"] = float64(r.FalsePositives)
		return r.Result, nil
	})
}

// TestShardedNVMCrashDeterminism pins the crash harness across reruns:
// RunUntil stops the run at the crash cycle, recovery replays the
// journal, and the committed-transaction count is identical both times.
func TestShardedNVMCrashDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prm := DefaultNVMParams(256)
	prm.Transactions = 256
	ref, err := RunNVMCrash(prm, 60000)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if ref <= 0 || ref >= prm.Transactions {
		t.Fatalf("crash at a boundary: committed %d/%d transactions (pick a crash cycle mid-run)",
			ref, prm.Transactions)
	}
	committed, err := RunNVMCrash(prm, 60000)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if committed != ref {
		t.Fatalf("rerun committed %d transactions, first run committed %d", committed, ref)
	}
}
