package oracle

import "testing"

// TestOracleRandomTraces is the main differential-verification
// property: thousands of mixed operations per seed across multiple
// tiles, over real and phantom regions with Morphs attached, must
// produce zero oracle mismatches and zero invariant violations.
func TestOracleRandomTraces(t *testing.T) {
	seeds := []int64{1, 2, 3}
	total := 0
	for _, seed := range seeds {
		res, err := RunTrace(DefaultTraceConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total += res.Ops
		if err := res.Oracle.Err(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		t.Logf("seed %d: %d ops in %d cycles, %s", seed, res.Ops, res.Cycles, res.Oracle.Fingerprint())
	}
	// A wider machine: more tiles, more home banks, more cross-tile
	// coherence traffic.
	wide := DefaultTraceConfig(7)
	wide.Tiles = 6
	wide.OpsPerTile = 500
	res, err := RunTrace(wide)
	if err != nil {
		t.Fatal(err)
	}
	total += res.Ops
	if err := res.Oracle.Err(); err != nil {
		t.Errorf("wide: %v", err)
	}
	if total < 10000 {
		t.Fatalf("harness ran only %d ops, want >= 10000", total)
	}
}

// TestOracleDeterminism: equal seeds must reproduce the simulation
// byte-for-byte — cycles, counters, and every oracle observation.
func TestOracleDeterminism(t *testing.T) {
	cfg := DefaultTraceConfig(42)
	cfg.Tiles = 4
	cfg.OpsPerTile = 600
	a, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Fingerprint, b.Fingerprint)
	}
	if err := a.Oracle.Err(); err != nil {
		t.Error(err)
	}
}

// TestOracleCatchesCorruption sanity-checks the checker itself: a trace
// whose shadow is deliberately corrupted afterwards must report final
// mismatches (guards against the oracle silently checking nothing).
func TestOracleCatchesCorruption(t *testing.T) {
	cfg := DefaultTraceConfig(5)
	cfg.Tiles = 2
	cfg.OpsPerTile = 50
	res, err := RunTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Oracle.Err(); err != nil {
		t.Fatal(err)
	}
	o := res.Oracle
	for _, tr := range o.regions {
		if tr.kind == Plain {
			o.Shadow().WriteU64(tr.region.Word(0), ^o.Shadow().ReadU64(tr.region.Word(0)))
			break
		}
	}
	o.VerifyFinal()
	if o.MismatchCount() == 0 {
		t.Fatal("corrupted shadow not detected — the final sweep is not checking")
	}
}
