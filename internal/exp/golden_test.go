package exp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden snapshots")

// TestGoldenCaseStudies pins the rendered stats of the case-study
// drivers (quick configurations; fig25full's row is a warmup-on run, so
// fast-forward gets its own golden). The simulator is
// deterministic, so any diff is a behavior change: either a regression,
// or an intentional change to be re-recorded with
//
//	go test ./internal/exp -run Golden -update
func TestGoldenCaseStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"fig6", "fig13", "fig16", "fig19", "fig21", "fig25full"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not registered", id)
			}
			tbl, err := e.Run(true)
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.String()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverged from its golden snapshot\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}

// TestOpsGoldensNameEveryExperiment checks that the ops golden names
// exactly the registered experiments at quick scale. takoreport's gate
// fails on an experiment its golden does not name, so a missing entry
// would fail CI, and an extra one would gate nothing.
func TestOpsGoldensNameEveryExperiment(t *testing.T) {
	want := IDs()
	slices.Sort(want)
	data, err := os.ReadFile(filepath.Join("testdata", "bench_ops.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]map[string]uint64
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	var got []string
	for id := range g["quick"] {
		got = append(got, id)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("the golden names %v at quick scale, want exactly %v", got, want)
	}
}
