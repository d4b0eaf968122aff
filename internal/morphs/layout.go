package morphs

import (
	"fmt"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
)

// LayoutVariant selects an implementation of the array-of-structs →
// struct-of-arrays study. The paper mentions this Morph when motivating
// trrîp (§5.2): "in a simple Morph that maps array-of-structs to
// struct-of-arrays, we have observed speedup of > 4×". The workload
// makes several passes summing one field of a large struct array.
type LayoutVariant string

// Layout variants.
const (
	LayoutBaseline LayoutVariant = "baseline"  // scan the AoS directly every pass
	LayoutGather   LayoutVariant = "sw-gather" // software pre-packs the field first
	LayoutTako     LayoutVariant = "tako"      // phantom SoA view; onMiss gathers
	LayoutIdeal    LayoutVariant = "ideal"     // täkō with the idealized engine
)

// AllLayoutVariants lists the comparison order.
var AllLayoutVariants = []LayoutVariant{LayoutBaseline, LayoutGather, LayoutTako, LayoutIdeal}

// LayoutParams sizes the study: N structs of StructWords 64-bit fields;
// the AoS must exceed the LLC while the packed field array fits it.
type LayoutParams struct {
	Structs     int
	StructWords int
	Field       int
	Passes      int
	Tiles       int
	Seed        int64
}

// DefaultLayoutParams returns the study configuration: a 4 MB AoS versus
// a 512 KB packed field on a 4-tile (2 MB LLC) machine.
func DefaultLayoutParams() LayoutParams {
	return LayoutParams{
		Structs:     64 * 1024,
		StructWords: mem.WordsPerLine, // one struct per line: worst-case AoS
		Field:       3,
		Passes:      3,
		Tiles:       4,
		Seed:        5,
	}
}

type layoutView struct{ base mem.Addr }

// RunLayout executes one variant, verifying every pass's field sum.
// Runs are memoized in the run window, if one is armed (system.Memo).
func RunLayout(v LayoutVariant, prm LayoutParams) (Result, error) {
	return cachedRun("layout", string(v), prm, func() (Result, error) {
		return runLayout(v, prm)
	})
}

func runLayout(v LayoutVariant, prm LayoutParams) (Result, error) {
	cfg := system.Default(prm.Tiles)
	if v == LayoutBaseline || v == LayoutGather {
		cfg.NoTako = true
	}
	if v == LayoutIdeal {
		cfg.Engine = engine.IdealConfig()
	}
	s := system.New(cfg)

	aos := s.Alloc("aos", uint64(prm.Structs*prm.StructWords)*8)
	fieldAddr := func(i int) mem.Addr {
		return aos.Word(uint64(i*prm.StructWords + prm.Field))
	}
	var wantSum uint64
	for i := 0; i < prm.Structs; i++ {
		val := uint64(i)*2654435761 + 17 // deterministic, non-trivial
		s.H.DRAM.Store().WriteU64(fieldAddr(i), val)
		wantSum += val
	}

	var gotSums []uint64
	var runErr error
	var handles []*cpu.LoadHandle
	sumPass := func(p *sim.Proc, c *cpu.Core, addrOf func(i int) mem.Addr) {
		var sum uint64
		for i := 0; i < prm.Structs; i++ {
			c.Compute(p, 1)
			handles = append(handles, c.LoadAsyncV(p, addrOf(i)))
		}
		c.Drain(p)
		for _, h := range handles {
			sum += h.Value
		}
		handles = handles[:0]
		gotSums = append(gotSums, sum)
	}

	switch v {
	case LayoutBaseline:
		s.Go(0, "scan", func(p *sim.Proc, c *cpu.Core) {
			for pass := 0; pass < prm.Passes; pass++ {
				sumPass(p, c, fieldAddr)
			}
		})

	case LayoutGather:
		packed := s.Alloc("packed", uint64(prm.Structs)*8)
		s.Go(0, "scan", func(p *sim.Proc, c *cpu.Core) {
			// Pre-pack the field, then scan the dense copy.
			for i := 0; i < prm.Structs; i += mem.WordsPerLine {
				var line mem.Line
				for j := 0; j < mem.WordsPerLine; j++ {
					line.SetWord(j, c.Load(p, fieldAddr(i+j)))
					c.Compute(p, 1)
				}
				c.StoreLine(p, packed.Word(uint64(i)), &line)
			}
			for pass := 0; pass < prm.Passes; pass++ {
				sumPass(p, c, func(i int) mem.Addr { return packed.Word(uint64(i)) })
			}
		})

	case LayoutTako, LayoutIdeal:
		spec := core.MorphSpec{
			Name: "aos-to-soa",
			// onMiss gathers the field for the 8 structs this phantom
			// line covers (8 strided loads + packing).
			OnMiss: &core.Callback{
				Instrs: 18, CritPath: 5,
				Fn: func(ctx *engine.Ctx) {
					first := int((ctx.Addr - ctx.View().(*layoutView).base) / 8)
					for j := 0; j < mem.WordsPerLine; j++ {
						ctx.Line.SetWord(j, ctx.LoadWord(fieldAddr(first+j)))
					}
				},
			},
			NewView: func(tile int) interface{} { return &layoutView{} },
		}
		s.Go(0, "scan", func(p *sim.Proc, c *cpu.Core) {
			m, err := s.Tako.RegisterPhantom(p, spec, core.Shared, uint64(prm.Structs)*8, 0)
			if err != nil {
				runErr = err
				return
			}
			for i := 0; i < s.H.Tiles(); i++ {
				m.View(i).(*layoutView).base = m.Region.Base
			}
			for pass := 0; pass < prm.Passes; pass++ {
				sumPass(p, c, func(i int) mem.Addr { return m.Region.Word(uint64(i)) })
			}
			s.Tako.Unregister(p, m)
		})

	default:
		return Result{}, fmt.Errorf("unknown layout variant %q", v)
	}

	cycles := s.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	if len(gotSums) != prm.Passes {
		return Result{}, fmt.Errorf("%s: %d passes ran, want %d", v, len(gotSums), prm.Passes)
	}
	for pass, sum := range gotSums {
		if sum != wantSum {
			return Result{}, fmt.Errorf("%s pass %d: sum %d, want %d", v, pass, sum, wantSum)
		}
	}
	return collect(s, "layout", string(v), cycles), nil
}

// RunLayoutAll runs every variant of the AoS→SoA study, fanning
// independent variants across the scheduler's workers.
func RunLayoutAll(prm LayoutParams) (map[LayoutVariant]Result, error) {
	return runAllVariants(AllLayoutVariants, func(v LayoutVariant) (Result, error) {
		return RunLayout(v, prm)
	})
}
