package system

import (
	"testing"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/mem"
	"tako/internal/sim"
)

// benchMachineWorkload runs the shared-counter coherence workload (the
// same shape the determinism battery pins) once on the given config:
// every tile stores a stripe, joins an atomic counter barrier, then
// reads back every stripe cross-tile.
func benchMachineWorkload(cfg Config, words int) sim.Cycle {
	tiles := cfg.Tiles
	s := New(cfg)
	data := s.Alloc("data", uint64(tiles*words*8+4096))
	ctr := data.Base + mem.Addr(tiles*words*8+512)
	for i := 0; i < tiles; i++ {
		i := i
		s.Go(i, "worker", func(p *sim.Proc, c *cpu.Core) {
			for j := 0; j < words; j++ {
				c.Store(p, data.Base+mem.Addr((i*words+j)*8), uint64(i*1000+j))
			}
			c.AtomicAddSync(p, ctr, 1)
			for c.Load(p, ctr) != uint64(tiles) {
				p.Sleep(50)
			}
			var sink uint64
			for k := 0; k < tiles*words; k++ {
				sink += c.Load(p, data.Base+mem.Addr(k*8))
			}
			_ = sink
		})
	}
	return s.Run()
}

// BenchmarkShardedVsClassic is the single-simulation speedup benchmark:
// one machine, one workload, hosted on the classic kernel and on the
// sharded engine at several worker widths. Worker widths beyond the
// host's cores degenerate to sequenced execution plus barrier overhead.
func BenchmarkShardedVsClassic(b *testing.B) {
	const (
		tiles = 4
		words = 256
	)
	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		var cycles sim.Cycle
		for i := 0; i < b.N; i++ {
			cycles = benchMachineWorkload(cfg, words)
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()*float64(b.N), "sim-cycles/s")
	}
	b.Run("classic", func(b *testing.B) {
		cfg := Default(tiles)
		cfg.NoTako = true
		run(b, cfg)
	})
	for _, workers := range []int{1, 2, 4} {
		cfg := shardedConfig(tiles, workers)
		b.Run(map[int]string{1: "sharded-w1", 2: "sharded-w2", 4: "sharded-w4"}[workers], func(b *testing.B) {
			run(b, cfg)
		})
	}
}

// benchTakoWorkload drives a täkō machine: tile 0 registers a phantom
// morph whose onMiss callback materializes lines in the engine, the
// registration barrier doubles as the publish edge, and every tile then
// demand-loads its own stripe plus a cross-tile sample — each miss runs
// a callback on the home tile's engine.
func benchTakoWorkload(cfg Config, words int) sim.Cycle {
	tiles := cfg.Tiles
	s := New(cfg)
	spec := core.MorphSpec{
		Name: "bench-fill",
		OnMiss: &core.Callback{
			Instrs: 3, CritPath: 1,
			Fn: func(ctx *engine.Ctx) {
				for i := 0; i < mem.WordsPerLine; i++ {
					ctx.Line.SetWord(i, uint64(ctx.Addr)+uint64(i))
				}
			},
		},
	}
	bar := s.Barrier(tiles)
	var morph *core.Morph
	var regErr error
	for i := 0; i < tiles; i++ {
		i := i
		s.Go(i, "worker", func(p *sim.Proc, c *cpu.Core) {
			if i == 0 {
				morph, regErr = s.Tako.RegisterPhantom(p, spec, core.Shared, uint64(tiles*words*8), 0)
			}
			bar.Arrive(p)
			if regErr != nil {
				return
			}
			var sink uint64
			for j := 0; j < words; j++ {
				sink += c.Load(p, morph.Region.Word(uint64(i*words+j)))
			}
			bar.Arrive(p)
			for k := (i + 1) % tiles * words; k < tiles*words; k += 8 {
				sink += c.Load(p, morph.Region.Word(uint64(k%(tiles*words))))
			}
			_ = sink
		})
	}
	return s.Run()
}

// BenchmarkShardedTakoVsClassic is the täkō-machine companion of
// BenchmarkShardedVsClassic: the same speedup question asked of a
// machine with live engines — every miss on the morph region runs an
// onMiss callback at the line's home tile, so the sharded variants pay
// engine scheduling and cross-tile callback messages, not just
// coherence.
func BenchmarkShardedTakoVsClassic(b *testing.B) {
	const (
		tiles = 4
		words = 256
	)
	run := func(b *testing.B, cfg Config) {
		b.ReportAllocs()
		var cycles sim.Cycle
		for i := 0; i < b.N; i++ {
			cycles = benchTakoWorkload(cfg, words)
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()*float64(b.N), "sim-cycles/s")
	}
	b.Run("classic", func(b *testing.B) {
		run(b, Default(tiles))
	})
	for _, workers := range []int{1, 2, 4} {
		cfg := shardedConfig(tiles, workers)
		cfg.NoTako = false
		b.Run(map[int]string{1: "sharded-w1", 2: "sharded-w2", 4: "sharded-w4"}[workers], func(b *testing.B) {
			run(b, cfg)
		})
	}
}
