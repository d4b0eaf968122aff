package hier

import (
	"testing"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/sim"
)

func TestAtomicAddLocalNoLostUpdates(t *testing.T) {
	k := sim.NewKernel()
	cfg := ScaledConfig(4, 16)
	cfg.FreshChecks = true
	h := New(k, cfg, energy.NewMeter(), nil, nil)
	const per = 500
	const nLines = 8
	for tile := 0; tile < 4; tile++ {
		tile := tile
		k.Go("w", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				a := mem.Addr(0x9000 + (i%nLines)*64)
				h.AtomicAddLocal(p, tile, a, 1)
			}
		})
	}
	k.Run()
	var total uint64
	for j := 0; j < nLines; j++ {
		total += h.DebugReadWord(mem.Addr(0x9000 + j*64))
	}
	if total != 4*per {
		t.Fatalf("lost updates: total = %d, want %d", total, 4*per)
	}
}
