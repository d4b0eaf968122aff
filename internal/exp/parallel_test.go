package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"tako/internal/morphs"
	"tako/internal/system"
)

// expRun is what one experiment left in a run window.
type expRun struct {
	table   string
	runs    []system.RunRecord
	systems int // machines built, i.e. simulations executed
}

// runWindow runs the experiments ids at quick scale in one run window
// with the given worker count and returns, per experiment, its rendered
// table and what the window collected while it ran.
func runWindow(t *testing.T, workers int, ids ...string) []expRun {
	t.Helper()
	system.StartCapture(system.CaptureConfig{Workers: workers})
	defer system.StopCapture()
	var out []expRun
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		before := system.CaptureProgress()
		tbl, err := e.Run(true)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, expRun{
			table:   tbl.String(),
			runs:    system.CaptureRuns()[before.Submitted:],
			systems: system.CaptureProgress().Systems - before.Systems,
		})
	}
	return out
}

// TestParallelDriversMatchSequential pins the scheduler's determinism
// contract: a driver fanning its variants across 4 workers produces a
// byte-identical table and byte-identical capture log to the same driver
// at 1 worker (which executes inline, exactly like the pre-scheduler
// sequential loop). Each side runs in its own window, so both simulate.
// CI runs this under -race, which also makes it the data-race probe for
// concurrent simulations.
func TestParallelDriversMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seq := runWindow(t, 1, "fig6")[0]
	par := runWindow(t, 4, "fig6")[0]

	if seq.table != par.table {
		t.Errorf("table differs between 1 and 4 workers\n--- j=1 ---\n%s--- j=4 ---\n%s", seq.table, par.table)
	}
	if len(seq.runs) != len(morphs.AllDecompVariants) {
		t.Fatalf("captured %d runs, want %d", len(seq.runs), len(morphs.AllDecompVariants))
	}
	seqJSON, err := json.Marshal(seq.runs)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(par.runs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("captured run records (labels, ops, cycles, metrics) differ between 1 and 4 workers")
	}
}

// TestRunCacheSharesPairedFigures pins the memo cache's purpose: fig6 and
// fig7 render different tables from the same decompression simulations,
// so in one window the pair costs one set of simulations, and the
// replayed records carry identical op counts (what the CI ops golden
// gates on).
func TestRunCacheSharesPairedFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	w := runWindow(t, 0, "fig6", "fig7")
	fig6, fig7 := w[0], w[1]
	if got, want := fig6.systems, len(morphs.AllDecompVariants); got != want {
		t.Fatalf("fig6 executed %d simulations, want %d", got, want)
	}
	if fig7.systems != 0 {
		t.Errorf("fig7 re-simulated %d runs the cache should have served", fig7.systems)
	}
	if len(fig7.runs) != len(fig6.runs) {
		t.Fatalf("fig7 captured %d runs, fig6 %d", len(fig7.runs), len(fig6.runs))
	}
	for i, r6 := range fig6.runs {
		r7 := fig7.runs[i]
		if r7.Label != r6.Label || r7.Ops != r6.Ops {
			t.Errorf("run %d: fig7 (%s, %d ops) != fig6 (%s, %d ops)", i, r7.Label, r7.Ops, r6.Label, r6.Ops)
		}
		if r6.Cached || !r7.Cached {
			t.Errorf("run %s: cached in fig6 %v, in fig7 %v; want false, true", r6.Label, r6.Cached, r7.Cached)
		}
	}
}

// TestSkipDoesNotEvictSharedRuns pins the takoreport -skip interaction:
// skipping one figure of a pair (here fig6, so fig7 runs first and alone)
// must still simulate the shared runs exactly once and keep them for any
// later figure in the window.
func TestSkipDoesNotEvictSharedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	w := runWindow(t, 0, "fig7", "fig6")
	fig7, fig6 := w[0], w[1]
	if got, want := fig7.systems, len(morphs.AllDecompVariants); got != want {
		t.Fatalf("fig7 alone executed %d simulations, want %d", got, want)
	}
	for _, r := range fig7.runs {
		if r.Cached {
			t.Errorf("fig7 run %s marked cached on first execution", r.Label)
		}
	}
	if len(fig6.runs) != len(fig7.runs) {
		t.Fatalf("fig6 captured %d runs, want %d", len(fig6.runs), len(fig7.runs))
	}
	if fig6.systems != 0 {
		t.Errorf("fig6 after fig7 re-simulated %d runs", fig6.systems)
	}
}
