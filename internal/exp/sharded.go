package exp

import (
	"fmt"
	"time"

	"tako/internal/cpu"
	"tako/internal/mem"
	"tako/internal/morphs"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/system"
)

// The "sharded" experiment is simulator engineering rather than a paper
// artifact: it runs one cross-tile coherence workload on the baseline
// machine under both engines the simulator offers — the classic
// single-kernel engine and the tile-sharded message-passing engine at
// several worker counts — and tabulates cycles and op counts side by
// side. Every row is built with system.Build, so the process-wide
// -sharded option cannot re-host a row onto another engine.
//
// Two properties are asserted, not just printed:
//
//   - the sharded rows are byte-identical at every worker count
//     (sequenced, 2, 4): same cycles, same ops, same metrics snapshot;
//   - every engine commits the same architectural values (each tile's
//     readback of every stripe after the counter barrier).
//
// Cycle counts legitimately differ between the sharded engine and the
// classic kernel: cross-tile operations pay real message round trips
// on the sharded build, while the classic engine resolves directory and
// home-bank state under one clock. The table shows that divergence
// honestly instead of hiding it.

type shardedVariant struct {
	name    string
	cfg     func(tiles int) system.Config
	sharded bool
}

func shardedVariants() []shardedVariant {
	classic := func(tiles int) system.Config {
		cfg := system.Default(tiles)
		cfg.NoTako = true
		return cfg
	}
	shard := func(workers int) func(int) system.Config {
		return func(tiles int) system.Config {
			cfg := system.Default(tiles)
			cfg.NoTako = true
			cfg.Sharded = true
			cfg.ShardWorkers = workers
			return cfg
		}
	}
	return []shardedVariant{
		{"classic", classic, false},
		{"sharded-seq", shard(0), true},
		{"sharded-w2", shard(2), true},
		{"sharded-w4", shard(4), true},
	}
}

// runShardedVariant executes the shared-counter workload on one engine
// variant: every tile stores a stripe, announces through an atomic
// counter at the home bank, spins until all tiles have, then reads back
// every stripe. The readback is returned alongside the result so the
// driver can cross-check architectural values between engines.
func runShardedVariant(v shardedVariant, tiles, words int) (morphs.Result, [][]uint64, error) {
	start := time.Now()
	s := system.Build(v.cfg(tiles))
	data := s.Alloc("data", uint64(tiles*words*8+4096))
	ctr := data.Base + mem.Addr(tiles*words*8+512)
	out := make([][]uint64, tiles)
	for i := 0; i < tiles; i++ {
		out[i] = make([]uint64, tiles*words)
		i := i
		s.Go(i, "worker", func(p *sim.Proc, c *cpu.Core) {
			for j := 0; j < words; j++ {
				c.Store(p, data.Base+mem.Addr((i*words+j)*8), uint64(i*1000+j))
			}
			c.AtomicAddSync(p, ctr, 1)
			for c.Load(p, ctr) != uint64(tiles) {
				p.Sleep(50)
			}
			for k := 0; k < tiles*words; k++ {
				out[i][k] = c.Load(p, data.Base+mem.Addr(k*8))
			}
		})
	}
	cycles := s.Run()
	r := morphs.Result{
		Record:       system.LabelRun(s, "sharded/"+v.name, s.Ops()),
		Study:        "sharded",
		Variant:      v.name,
		Cycles:       cycles,
		EnergyPJ:     s.Meter.TotalPJ(),
		CoreInstrs:   s.TotalInstrs(),
		DRAMAccesses: s.H.DRAMAccesses(),
		WallMS:       float64(time.Since(start)) / float64(time.Millisecond),
	}
	return r, out, nil
}

func init() {
	register(Experiment{
		ID:    "sharded",
		Title: "Engine comparison: classic vs tile-sharded kernels",
		Paper: "not in the paper — simulator engineering: one simulation parallelized across tile shards, byte-identical at any worker count",
		Run: func(quick bool) (*stats.Table, error) {
			tiles, words := 4, 192
			if quick {
				words = 48
			}
			variants := shardedVariants()
			t := stats.NewTable("Engine comparison — shared-counter workload",
				"engine", "cycles", "ops", "dram", "deterministic")
			type outcome struct {
				r   morphs.Result
				out [][]uint64
			}
			outs := make([]outcome, len(variants))
			_, err := runResults(len(variants), func(i int) (morphs.Result, error) {
				r, out, err := runShardedVariant(variants[i], tiles, words)
				outs[i] = outcome{r, out}
				return r, err
			})
			if err != nil {
				return nil, err
			}
			// Every engine must commit the same architectural values.
			for i, o := range outs {
				for tile := range o.out {
					for k, v := range o.out[tile] {
						if want := uint64((k/words)*1000 + k%words); v != want {
							return nil, fmt.Errorf("%s: tile %d read word %d = %d, want %d",
								variants[i].name, tile, k, v, want)
						}
					}
				}
			}
			// The sharded rows must be identical at every worker count.
			var ref *morphs.Result
			var refName string
			for i, v := range variants {
				if !v.sharded {
					continue
				}
				r := &outs[i].r
				if ref == nil {
					ref, refName = r, v.name
					continue
				}
				if r.Cycles != ref.Cycles || recordOps(r) != recordOps(ref) {
					return nil, fmt.Errorf("sharded determinism violated: %s ran %d cycles / %d ops, %s ran %d / %d",
						v.name, r.Cycles, recordOps(r), refName, ref.Cycles, recordOps(ref))
				}
				if r.Record != nil && ref.Record != nil &&
					fmt.Sprint(r.Record.Metrics) != fmt.Sprint(ref.Record.Metrics) {
					return nil, fmt.Errorf("sharded determinism violated: %s metrics diverge from %s",
						v.name, refName)
				}
			}
			for i, v := range variants {
				det := "n/a"
				if v.sharded {
					det = "✓ (= sharded-seq)"
				}
				r := outs[i].r
				t.AddRowf(v.name, r.Cycles, recordOps(&r), r.DRAMAccesses, det)
			}
			return t, nil
		},
	})
}

func recordOps(r *morphs.Result) uint64 {
	if r.Record != nil {
		return r.Record.Ops
	}
	return r.CoreInstrs + r.EngineInstrs + r.DRAMAccesses
}
