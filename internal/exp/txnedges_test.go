package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"tako/internal/hier"
	"tako/internal/system"
)

// TestTxnEdgesDeterministicAndLegal pins the coverage data the reports
// and the introspection heatmap are built from: every captured run
// carries transaction edges, each edge is one of the state machine's
// legal transitions, and re-running the same experiment reproduces the
// edge lists byte-for-byte (the run records they travel in are part of
// the -metrics determinism contract).
func TestTxnEdgesDeterministicAndLegal(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	legal := map[hier.TxnTransition]bool{}
	for _, e := range hier.LegalEdges() {
		e.Count = 0
		legal[e] = true
	}

	// Separate windows, so both passes really simulate.
	runs1 := runWindow(t, 0, "fig6")[0].runs
	runs2 := runWindow(t, 0, "fig6")[0].runs
	if len(runs1) == 0 || len(runs1) != len(runs2) {
		t.Fatalf("captured %d and %d runs", len(runs1), len(runs2))
	}
	for i := range runs1 {
		if len(runs1[i].TxnEdges) == 0 {
			t.Fatalf("run %s captured no txn edges", runs1[i].Label)
		}
		for _, e := range runs1[i].TxnEdges {
			if e.Count == 0 {
				t.Errorf("run %s reports edge %v with zero count", runs1[i].Label, e)
			}
			e.Count = 0
			if !legal[e] {
				t.Errorf("run %s observed illegal edge %s: %s -> %s",
					runs1[i].Label, e.Kind, e.From, e.To)
			}
		}
		a, err := json.Marshal(runs1[i].TxnEdges)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(runs2[i].TxnEdges)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("run %s: txn edges differ between identical executions\n%s\nvs\n%s",
				runs1[i].Label, a, b)
		}
	}

	// The aggregate visited/unvisited split partitions the legal set.
	agg := system.AggregateTxnEdges(runs1)
	unvisited := hier.UnvisitedEdges(agg)
	if len(agg)+len(unvisited) != len(hier.LegalEdges()) {
		t.Errorf("visited %d + unvisited %d != legal %d",
			len(agg), len(unvisited), len(hier.LegalEdges()))
	}
	seen := map[hier.TxnTransition]bool{}
	for _, e := range agg {
		e.Count = 0
		seen[e] = true
	}
	for _, u := range unvisited {
		if seen[hier.TxnTransition{Kind: u.Kind, From: u.From, To: u.To}] {
			t.Errorf("edge %v reported both visited and unvisited", u)
		}
	}
	if !reflect.DeepEqual(agg, system.AggregateTxnEdges(runs2)) {
		t.Error("aggregated edges differ between identical executions")
	}
}
