package exp

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig6", "fig7", "table2", "table3", "fig13", "fig14", "fig16",
		"fig17", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
		"fig25", "fig25full", "ffcheck", "sweep-cbbuf", "sweep-rtlb",
		"layout",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered %d experiments (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order: got %v", got)
		}
	}
	for _, id := range want {
		e, ok := ByID(id)
		if !ok || e.Run == nil || e.Title == "" || e.Paper == "" {
			t.Fatalf("experiment %q incomplete", id)
		}
	}
}

func TestTablesRender(t *testing.T) {
	for _, id := range []string{"table2", "table3"} {
		e, _ := ByID(id)
		tbl, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows()) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestTable2MatchesPaperBallpark(t *testing.T) {
	e, _ := ByID("table2")
	tbl, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	total := rows[len(rows)-1]
	if !strings.Contains(total[2], "%") {
		t.Fatalf("no overhead percentage: %v", total)
	}
	// Paper: 27.1 KB / 512 KB = 5.3%. Accept 4-7%.
	var p float64
	if _, err := fmt.Sscanf(total[2], "%f%%", &p); err != nil {
		t.Fatalf("parse %q: %v", total[2], err)
	}
	if p < 4 || p > 7 {
		t.Fatalf("overhead %.1f%%, want ~5.3%%", p)
	}
}

func TestFig21DriverRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, _ := ByID("fig21")
	tbl, err := e.Run(true)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][1] != "false" || rows[1][1] != "true" {
		t.Fatalf("detection column wrong: %v / %v", rows[0], rows[1])
	}
}
