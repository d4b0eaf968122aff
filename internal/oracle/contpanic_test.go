package oracle

import (
	"strings"
	"testing"

	"tako/internal/cpu"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
)

// panicOnRMO is an observer whose RMO commit hook panics: the hook runs
// inside the RMO's kernel continuation.
type panicOnRMO struct{}

func (panicOnRMO) LoadCommitted(int, mem.Addr, uint64)                            {}
func (panicOnRMO) LineLoaded(int, mem.Addr, *mem.Line)                            {}
func (panicOnRMO) StoreCommitted(int, mem.Addr, uint64)                           {}
func (panicOnRMO) LineStored(int, mem.Addr, *mem.Line, bool)                      {}
func (panicOnRMO) ExchangeCommitted(int, mem.Addr, uint64, uint64)                {}
func (panicOnRMO) EngineAccess(int, mem.Addr, bool)                               {}
func (panicOnRMO) Event(string)                                                   {}
func (panicOnRMO) RMOCommitted(int, mem.Addr, hier.RMOOp, uint64, uint64, uint64) { panic("rmo hook") }

// TestRunSystemRecoversContinuationPanic: a panic raised inside a
// hardware continuation (an RMO's commit) reaches runSystem on the
// driver, which recovers it as an error and shuts the kernel down,
// with a thread still parked and more RMOs in flight.
func TestRunSystemRecoversContinuationPanic(t *testing.T) {
	s := system.New(system.Default(2))
	s.H.AttachObserver(panicOnRMO{})
	r := s.Alloc("counters", 4*mem.LineSize)
	s.Go(0, "adder", func(p *sim.Proc, _ *cpu.Core) {
		for i := 0; i < 4; i++ {
			s.H.AtomicAdd(p, 0, r.Base+mem.Addr(i*mem.LineSize), 1)
		}
		s.H.DrainRMOs(p, 0)
	})
	s.Go(1, "bystander", func(p *sim.Proc, _ *cpu.Core) { p.Sleep(1 << 20) })
	_, err := runSystem(s, true)
	if err == nil || !strings.Contains(err.Error(), "rmo hook") || strings.Contains(err.Error(), "in proc") {
		t.Fatalf("runSystem returned %v, want the continuation's own panic", err)
	}
	if b := s.K.Blocked(); len(b) != 0 {
		t.Fatalf("blocked = %v after Shutdown, want none", b)
	}
}
