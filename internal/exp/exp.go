// Package exp contains one driver per table and figure of the paper's
// evaluation (§3, §8, §9). Each driver runs the workload(s) on the
// modeled system and prints the same rows or series the paper reports;
// EXPERIMENTS.md records paper-vs-measured for each.
package exp

import (
	"fmt"
	"sort"

	"tako/internal/stats"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // e.g. "fig6", "table2"
	Title string
	Paper string // the paper's headline claim for this artifact
	// Run executes the experiment; quick uses the scaled-down
	// configuration (seconds), !quick a larger one (minutes).
	Run func(quick bool) (*stats.Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, k := range []string{
		"fig6", "fig7", "table2", "table3", "fig13", "fig14", "fig16",
		"fig17", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
		"fig25", "fig25full", "ffcheck", "sweep-cbbuf", "sweep-rtlb",
	} {
		if k == id {
			return i
		}
	}
	return 99
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

func pct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }
