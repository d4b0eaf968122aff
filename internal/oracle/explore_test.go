package oracle

import (
	"reflect"
	"testing"
)

// TestExploreScenarios sweeps every scenario with a small schedule
// budget: a correct hierarchy must satisfy the oracle under every
// schedule the explorer tries.
func TestExploreScenarios(t *testing.T) {
	cfg := DefaultExploreConfig()
	cfg.MaxRuns = 8
	if testing.Short() {
		cfg.MaxRuns = 3
	}
	cfg.Logf = t.Logf
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 6 {
		t.Fatalf("expected 6 scenarios, ran %v", res.Scenarios)
	}
	if res.Runs < len(res.Scenarios)*2 {
		t.Fatalf("expected ≥2 schedules per scenario, ran %d total", res.Runs)
	}
	if res.ChoicePoints == 0 {
		t.Fatal("no choice points seen: the chooser never armed or no events tied")
	}
	for _, f := range res.Findings {
		t.Errorf("%s under schedule %v: %s", f.Scenario, trimSchedule(f.Schedule), f.Err)
	}
}

// TestExploreDeterministic re-runs one perturbed schedule and checks the
// recorded choice trace matches: replaying a prefix must reproduce the
// same run shape or the explorer's findings aren't reproducible.
func TestExploreDeterministic(t *testing.T) {
	sc := Scenarios()[0]
	cfg := ExploreConfig{CheckEvery: 32}
	first := &schedChooser{prefix: []int{0, 1}}
	if msg := runSchedule(sc, cfg, first); msg != "" {
		t.Fatalf("schedule failed: %s", msg)
	}
	second := &schedChooser{prefix: []int{0, 1}}
	if msg := runSchedule(sc, cfg, second); msg != "" {
		t.Fatalf("replay failed: %s", msg)
	}
	if len(first.taken) != len(second.taken) {
		t.Fatalf("replay diverged: %d vs %d choice points", len(first.taken), len(second.taken))
	}
	for i := range first.taken {
		if first.taken[i] != second.taken[i] || first.arity[i] != second.arity[i] {
			t.Fatalf("replay diverged at choice %d: taken %d/%d arity %d/%d",
				i, first.taken[i], second.taken[i], first.arity[i], second.arity[i])
		}
	}
}

// exploreAll sweeps every scenario with a small budget at the given
// worker count and returns the full result.
func exploreAll(t *testing.T, workers int) *ExploreResult {
	t.Helper()
	cfg := DefaultExploreConfig()
	cfg.MaxRuns = 6
	cfg.Workers = workers
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExploreParallelMatchesSequential pins the explorer's batched
// parallel evaluation: the complete ExploreResult — scenario list, run
// count, choice-point high-water mark, and findings in order — is
// identical at 1 and 4 workers. CI runs this under -race, making it the
// data-race probe for concurrent schedule evaluation.
func TestExploreParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ref := exploreAll(t, 1)
	if ref.Runs == 0 || ref.ChoicePoints == 0 {
		t.Fatalf("reference sweep did not explore: %+v", ref)
	}
	for _, f := range ref.Findings {
		t.Errorf("%s under schedule %v: %s", f.Scenario, trimSchedule(f.Schedule), f.Err)
	}
	if got := exploreAll(t, 4); !reflect.DeepEqual(got, ref) {
		t.Errorf("workers=4 explore result diverged:\ngot:  %+v\nwant: %+v", got, ref)
	}
}

// FuzzExploreSchedule lets the fuzzer drive the scheduling choices
// directly: the first byte picks a scenario, the rest resolve choice
// points (modulo arity). Every reachable schedule is a legal hardware
// timing, so the oracle and invariants must hold under all of them.
func FuzzExploreSchedule(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1})
	f.Add([]byte{2, 0, 1, 0, 2})
	f.Add([]byte{3, 5, 4, 3, 2, 1})
	f.Add([]byte{4, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 2, 7, 1, 0, 3})
	scenarios := Scenarios()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		if len(data) > 256 { // bounds choice-point churn per run
			data = data[:256]
		}
		sc := scenarios[int(data[0])%len(scenarios)]
		ch := &byteChooser{data: data[1:]}
		tc := TraceConfig{
			Tiles:         sc.tiles,
			CacheScale:    sc.scale,
			CheckEvery:    64,
			Script:        sc.ops,
			Chooser:       ch,
			RecoverPanics: true,
			RealMorph:     sc.realMorph,
		}
		res, err := RunTrace(tc)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Oracle.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
