// Package energy models dynamic execution energy as per-event costs, in
// the style of the paper's methodology (§7: "dynamic execution energy,
// energy parameters from [114, 133]"). The paper's energy results are
// driven by event counts — DRAM accesses dominate, followed by on-chip
// data movement and core instructions — so any per-event constants in the
// published ballpark preserve the reported shape. Constants below are in
// picojoules per event for a ~14 nm-class multicore.
package energy

import (
	"fmt"
)

// Kind identifies a class of energy-consuming event.
type Kind int

// Event kinds. DefaultCosts gives each a per-event energy.
const (
	CoreInstr   Kind = iota // one committed instruction on an OOO core
	EngineInstr             // one dataflow-fabric operation (SIMD counts once per PE op)
	L1Access                // L1d tag+data access (hit or fill)
	L2Access                // L2 tag+data access
	L3Access                // L3 bank tag+data access
	DRAMAccess              // one 64 B DRAM line transfer
	NVMWrite                // one 64 B persistent write (more expensive than DRAM)
	NoCFlitHop              // one 16 B flit traversing one router+link
	TLBAccess               // TLB/rTLB lookup
	numKinds
)

var kindNames = [numKinds]string{
	"core-instr", "engine-instr", "l1-access", "l2-access", "l3-access",
	"dram-access", "nvm-write", "noc-flit-hop", "tlb-access",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// DefaultCosts returns per-event dynamic energy in pJ.
//
// Sources of the ballpark: Horowitz ISSCC'14 (ALU ops ~1 pJ, 8 KB SRAM
// ~10 pJ, DRAM interface ~1-2 nJ per 64 b word → ~10 nJ per 64 B line);
// OOO cores pay tens of pJ of pipeline overhead per instruction, while a
// small dataflow PE pays ~1-2 pJ per op (Snafu/Fifer-class fabrics).
func DefaultCosts() [numKinds]float64 {
	return [numKinds]float64{
		CoreInstr:   45,
		EngineInstr: 2,
		L1Access:    10,
		L2Access:    28,
		L3Access:    60,
		DRAMAccess:  10_000,
		NVMWrite:    30_000,
		NoCFlitHop:  4,
		TLBAccess:   2,
	}
}

// Meter accumulates event counts and converts them to energy. It is
// single-threaded, like the kernel that drives it.
type Meter struct {
	counts [numKinds]uint64
	costs  [numKinds]float64
}

// NewMeter returns a Meter with DefaultCosts.
func NewMeter() *Meter {
	return &Meter{costs: DefaultCosts()}
}

// Add records n events of kind k.
func (m *Meter) Add(k Kind, n uint64) { m.counts[k] += n }

// Count returns the number of recorded events of kind k.
func (m *Meter) Count(k Kind) uint64 { return m.counts[k] }

// TotalPJ returns total dynamic energy in picojoules.
func (m *Meter) TotalPJ() float64 {
	var total float64
	for k := Kind(0); k < numKinds; k++ {
		total += float64(m.counts[k]) * m.costs[k]
	}
	return total
}
