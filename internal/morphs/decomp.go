package morphs

import (
	"fmt"

	"tako/internal/cache"
	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/energy"
	"tako/internal/engine"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
	"tako/internal/workloads"
)

// DecompVariant selects an implementation of the decompression study
// (§3, Fig 6): computing the average of a Zipfian stream of reads from a
// base+delta lossy-compressed data set.
type DecompVariant string

// Decompression variants (Fig 6's bars).
const (
	DecompBaseline   DecompVariant = "baseline"   // decompress on the core, per access
	DecompPrecompute DecompVariant = "precompute" // vectorized: decompress everything up front
	DecompNDC        DecompVariant = "ndc"        // offload each decompression to the L2 engine [83]
	DecompTako       DecompVariant = "tako"       // phantom range + onMiss decompression
	DecompIdeal      DecompVariant = "ideal"      // täkō with the idealized engine
)

// AllDecompVariants lists Fig 6's bars in order.
var AllDecompVariants = []DecompVariant{
	DecompBaseline, DecompPrecompute, DecompNDC, DecompTako, DecompIdeal,
}

// DecompParams sizes the study (§3.3: 32 K Zipfian indices over 16 K
// values in blocks of 8; the 128 KB decompressed working set matches the
// private L2, which is what lets täkō memoize effectively — phantom
// lines are not backed below their registration level).
type DecompParams struct {
	NumValues  int
	NumIndices int
	BlockSize  int
	ZipfSkew   float64
	Seed       int64
	Tiles      int
	// PlainRRIP disables trrîp's engine-fill demotion (the §5.2
	// pollution-avoidance ablation): engine fills insert like demand
	// fills.
	PlainRRIP bool
}

// DefaultDecompParams returns the paper's configuration.
func DefaultDecompParams() DecompParams {
	return DecompParams{
		NumValues:  16 * 1024,
		NumIndices: 32 * 1024,
		BlockSize:  8,
		ZipfSkew:   1.25,
		Seed:       42,
		Tiles:      16,
	}
}

// decompInstrs is the per-value decompression work on a scalar core
// (index arithmetic, shift/mask extraction, saturating add for the lossy
// format), excluding the loads themselves. The premise of the study (§3)
// is that "cores are inefficient at data transformations".
const decompInstrs = 16

// decompVecInstrs is the per-line (8-value) cost when vectorized. The
// lossy format's data-dependent extraction vectorizes poorly (§3.3's
// pre-compute version lands close to the baseline in the paper), so the
// vector path gains only ~30% over scalar.
const decompVecInstrs = 100

type decompView struct{ base mem.Addr }

// RunDecompression executes one variant, verifies the computed sum
// against the functional reference, and returns its Result. Runs are
// memoized in the run window, if one is armed (system.Memo).
func RunDecompression(v DecompVariant, prm DecompParams) (Result, error) {
	return cachedRun("decompression", string(v), prm, func() (Result, error) {
		return runDecompression(v, prm)
	})
}

func runDecompression(v DecompVariant, prm DecompParams) (Result, error) {
	cfg := system.Default(prm.Tiles)
	if prm.PlainRRIP {
		cfg.Hier.NewPolicy = func() cache.Policy { return cache.NewRRIP() }
	}
	switch v {
	case DecompBaseline, DecompPrecompute:
		cfg.NoTako = true
	case DecompIdeal:
		cfg.Engine = engine.IdealConfig()
	}
	s := system.New(cfg)

	data := workloads.GenCompressed(prm.NumValues, prm.BlockSize, prm.Seed)
	cm := data.Layout(s.Space, s.H.DRAM.Store())
	indices := workloads.ZipfIndicesS(prm.NumIndices, prm.NumValues, prm.ZipfSkew, prm.Seed+1)
	var wantSum uint64
	for _, ix := range indices {
		wantSum += data.Value(ix)
	}

	var gotSum, decompressions, extraMemory uint64
	var runErr error

	// sumHandles folds completed async loads into gotSum.
	var handles []*cpu.LoadHandle
	finish := func(p *sim.Proc, c *cpu.Core) {
		c.Drain(p)
		for _, h := range handles {
			gotSum += h.Value
		}
		handles = nil
	}

	switch v {
	case DecompBaseline:
		s.Go(0, "avg", func(p *sim.Proc, c *cpu.Core) {
			for _, ix := range indices {
				c.Compute(p, 2) // index generation
				// Independent loads: the OOO window overlaps them;
				// sum(base_i) + sum(delta_i) = sum(value_i).
				handles = append(handles,
					c.LoadAsyncV(p, cm.Bases.Word(uint64(ix/prm.BlockSize))),
					c.LoadAsyncV(p, cm.Deltas.Word(uint64(ix))))
				c.Compute(p, decompInstrs)
				decompressions++
				c.Compute(p, 2) // accumulate
			}
			finish(p, c)
		})

	case DecompPrecompute:
		decomp := s.Alloc("decompressed", uint64(prm.NumValues)*8)
		extraMemory = decomp.Size
		s.Go(0, "avg", func(p *sim.Proc, c *cpu.Core) {
			// Phase 1: vectorized decompression, one line (8 values)
			// at a time — decompresses values that are never read
			// and writes a second copy of the data set.
			for i := 0; i < prm.NumValues; i += mem.WordsPerLine {
				c.Load(p, cm.Bases.Word(uint64(i/prm.BlockSize)))
				c.LoadLine(p, cm.Deltas.Word(uint64(i)))
				c.Compute(p, decompVecInstrs)
				var line mem.Line
				for j := 0; j < mem.WordsPerLine; j++ {
					line.SetWord(j, data.Value(i+j))
					decompressions++
				}
				c.StoreLine(p, decomp.Word(uint64(i)), &line)
			}
			// Phase 2: the simple average loop over the new array.
			for _, ix := range indices {
				c.Compute(p, 2)
				handles = append(handles, c.LoadAsyncV(p, decomp.Word(uint64(ix))))
				c.Compute(p, 2)
			}
			finish(p, c)
		})

	case DecompNDC:
		// Livia-style NDC [83]: each access ships the decompression
		// to the tile engine. Results are returned, never cached, so
		// repeated accesses repeat the work — and the round trip is
		// on the critical path every time.
		s.Go(0, "avg", func(p *sim.Proc, c *cpu.Core) {
			for _, ix := range indices {
				c.Compute(p, 2)
				c.Compute(p, 1) // issue the offload request
				p.Sleep(4)      // L1→engine invocation
				base := s.H.EngineLoadWord(p, 0, cm.Bases.Word(uint64(ix/prm.BlockSize)), hier.LevelNone)
				delta := s.H.EngineLoadWord(p, 0, cm.Deltas.Word(uint64(ix)), hier.LevelNone)
				s.Meter.Add(energy.EngineInstr, decompInstrs/2) // SIMD-ish engine ops
				p.Sleep(3)                                      // dataflow compute + response
				decompressions++
				gotSum += base + delta
				c.Compute(p, 2)
			}
		})

	case DecompTako, DecompIdeal:
		spec := core.MorphSpec{
			Name: "decompress",
			OnMiss: &core.Callback{
				// base-word load, delta-line load, 8-wide SIMD
				// extract+add pipeline, line fill.
				Instrs: 14, CritPath: 6,
				Fn: func(ctx *engine.Ctx) {
					first := int((ctx.Addr - ctx.View().(*decompView).base) / 8)
					ctx.LoadWord(cm.Bases.Word(uint64(first / prm.BlockSize)))
					ctx.LoadLine(cm.Deltas.Word(uint64(first)))
					for j := 0; j < mem.WordsPerLine; j++ {
						ctx.Line.SetWord(j, data.Value(first+j))
						decompressions++
					}
				},
			},
			NewView: func(tile int) interface{} { return &decompView{} },
		}
		s.Go(0, "avg", func(p *sim.Proc, c *cpu.Core) {
			m, err := s.Tako.RegisterPhantom(p, spec, core.Private, uint64(prm.NumValues)*8, 0)
			if err != nil {
				runErr = err
				return
			}
			m.View(0).(*decompView).base = m.Region.Base
			for _, ix := range indices {
				c.Compute(p, 2)
				handles = append(handles, c.LoadAsyncV(p, m.Region.Word(uint64(ix))))
				c.Compute(p, 2)
			}
			finish(p, c)
			s.Tako.Unregister(p, m)
		})

	default:
		return Result{}, fmt.Errorf("unknown decompression variant %q", v)
	}

	cycles := s.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	if gotSum != wantSum {
		return Result{}, fmt.Errorf("%s: sum = %d, want %d", v, gotSum, wantSum)
	}
	r := collect(s, "decompression", string(v), cycles)
	r.Extra["decompressions"] = float64(decompressions)
	r.Extra["extra_memory_bytes"] = float64(extraMemory)
	return r, nil
}

// RunDecompressionAll runs every variant (Fig 6 + Fig 7 inputs),
// fanning independent variants across the scheduler's workers.
func RunDecompressionAll(prm DecompParams) (map[DecompVariant]Result, error) {
	return runAllVariants(AllDecompVariants, func(v DecompVariant) (Result, error) {
		return RunDecompression(v, prm)
	})
}
