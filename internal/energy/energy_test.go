package energy

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMeterAccumulates(t *testing.T) {
	m := NewMeter()
	m.Add(DRAMAccess, 10)
	m.Add(CoreInstr, 100)
	if m.Count(DRAMAccess) != 10 {
		t.Fatalf("count = %d", m.Count(DRAMAccess))
	}
	costs := DefaultCosts()
	want := 10*costs[DRAMAccess] + 100*costs[CoreInstr]
	if m.TotalPJ() != want {
		t.Fatalf("total = %v, want %v", m.TotalPJ(), want)
	}
}

func TestDRAMDominates(t *testing.T) {
	// Sanity-check the constants encode the paper's premise: data
	// movement costs dominate compute. One DRAM line access must cost
	// more than 100 core instructions and 1000 engine ops.
	costs := DefaultCosts()
	if costs[DRAMAccess] <= 100*costs[CoreInstr] {
		t.Fatal("DRAM access should dwarf core instructions")
	}
	if costs[DRAMAccess] <= 1000*costs[EngineInstr] {
		t.Fatal("DRAM access should dwarf engine ops")
	}
	if costs[EngineInstr] >= costs[CoreInstr] {
		t.Fatal("dataflow op should be cheaper than an OOO core instruction")
	}
	if costs[NVMWrite] <= costs[DRAMAccess] {
		t.Fatal("persistent writes should cost more than DRAM")
	}
}

func TestKindString(t *testing.T) {
	if CoreInstr.String() != "core-instr" {
		t.Fatalf("CoreInstr = %q", CoreInstr.String())
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Fatal("out-of-range kind should render numerically")
	}
}

func TestQuickEnergyLinear(t *testing.T) {
	f := func(n uint16) bool {
		m := NewMeter()
		m.Add(NoCFlitHop, uint64(n))
		return m.TotalPJ() == float64(n)*DefaultCosts()[NoCFlitHop]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
