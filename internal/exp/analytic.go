package exp

import (
	"fmt"
	"math/rand"

	"tako/internal/cache"
	"tako/internal/cpu"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/system"
	"tako/internal/workloads"
)

// ffCheckTolerance is the cross-validation oracle's gate: analytical
// and simulated miss ratios must agree within this absolute difference
// at every level, on every golden workload.
const ffCheckTolerance = 0.02

// ffCheckMinReach is the minimum fraction of all accesses that must
// reach a level (in both the simulated and analytical runs) for its
// miss ratio to be gated: below it the ratio is a quotient of near-zero
// counts and carries no signal.
const ffCheckMinReach = 0.01

// ffAccessGen produces the i-th access of a tile's deterministic
// stream, as a line index into the tile's scattered line set and a
// load/store choice.
type ffAccessGen func(rng *rand.Rand, i int) (line int, write bool)

// ffGolden is one golden workload of the cross-validation oracle.
type ffGolden struct {
	name string
	// lines is the per-tile working-set size in cache lines.
	lines int
	// scatter spreads the working set's lines across a sparse region
	// (random set placement, the regime the Poisson hit-probability
	// model assumes); false keeps them consecutive (a real sequential
	// layout, whose perfectly even set spread the model only matches
	// away from the capacity knife edge — docs/performance.md).
	scatter bool
	gen     ffAccessGen
}

// ffScatterSpan is the sparse span (in lines) scattered working sets
// are placed into; only touched lines materialize host memory.
const ffScatterSpan = 1 << 18

// ffGoldenWorkloads are the oracle's golden set, chosen to exercise
// distinct regimes of the reuse-distance spectrum on the scaled
// hierarchy (L1 8 lines, L2 32 lines, 4×128-line L3 banks at the
// oracle's cache scale): L1-straddling reuse, LLC-straddling reuse,
// skewed hot/cold mixes, and a pure sequential stream.
func ffGoldenWorkloads() []ffGolden {
	uniform := func(lines, storePct int) ffAccessGen {
		return func(rng *rand.Rand, i int) (int, bool) {
			return rng.Intn(lines), rng.Intn(100) < storePct
		}
	}
	return []ffGolden{
		{"uniform-l1", 12, true, uniform(12, 10)},
		{"uniform-llc", 256, true, uniform(256, 10)},
		{"hot-cold", 4096, true, func(rng *rand.Rand, i int) (int, bool) {
			line := rng.Intn(6)
			if rng.Intn(10) == 0 {
				line = rng.Intn(4096)
			}
			return line, rng.Intn(100) < 10
		}},
		{"stream", 64, false, func(rng *rand.Rand, i int) (int, bool) {
			return (i / 8) % 64, false // 8 word accesses per line, circular
		}},
	}
}

// ffCheckSystem builds the oracle's machine: a baseline hierarchy with true-LRU replacement and no prefetching, the regime
// the analytical model targets (docs/performance.md discusses the
// trrîp and prefetch gaps). ffBudget > 0 arms fast-forward.
func ffCheckSystem(tiles int, ffBudget uint64) *system.System {
	cfg := system.Scaled(tiles, 64)
	cfg.NoTako = true
	cfg.Hier.PrefetchDegree = 0
	cfg.Hier.NewPolicy = func() cache.Policy { return cache.NewLRU() }
	cfg.FastForward = ffBudget
	return system.New(cfg)
}

// ffCheckRun drives one golden workload on one machine: `tiles`
// threads, each issuing `accesses` line-granular loads/stores into a
// disjoint private region from a per-tile deterministic stream.
func ffCheckRun(w ffGolden, tiles, accesses int, ffBudget uint64) *system.System {
	s := ffCheckSystem(tiles, ffBudget)
	for t := 0; t < tiles; t++ {
		t := t
		span := uint64(w.lines)
		if w.scatter {
			span = ffScatterSpan
		}
		r := s.Alloc(fmt.Sprintf("%s.%d", w.name, t), span<<mem.LineShift)
		// The working set's placement: identity for consecutive
		// layouts, a deterministic random spread across the sparse
		// span for scattered ones (both runs draw the same placement).
		place := make([]uint64, w.lines)
		prng := rand.New(rand.NewSource(int64(9000 + t)))
		for i := range place {
			place[i] = uint64(i)
			if w.scatter {
				place[i] = uint64(prng.Intn(ffScatterSpan))
			}
		}
		s.Go(t, "ffcheck", func(p *sim.Proc, _ *cpu.Core) {
			rng := rand.New(rand.NewSource(int64(7000 + t)))
			for i := 0; i < accesses; i++ {
				line, write := w.gen(rng, i)
				a := r.At(place[line] << mem.LineShift)
				if write {
					s.H.Store(p, t, a, uint64(i))
				} else {
					s.H.Load(p, t, a)
				}
			}
		})
	}
	s.Run()
	return s
}

// simLevel is one level's simulated miss ratio plus the share of all
// accesses that reached the level.
type simLevel struct {
	miss, reach float64
}

// simMissRatios extracts the simulator's per-level miss ratios with the
// same denominators the analytical Estimate uses: each level over the
// accesses that reached it, plus each level's traffic share.
func simMissRatios(s *system.System) (l1, l2, l3 simLevel) {
	g := s.H.Metrics.Get
	total := float64(g("l1.hits") + g("l1.misses"))
	level := func(h, m uint64) simLevel {
		if h+m == 0 {
			return simLevel{}
		}
		return simLevel{float64(m) / float64(h+m), float64(h+m) / total}
	}
	l1 = level(g("l1.hits"), g("l1.misses"))
	l2 = level(g("l2.hits"), g("l2.misses"))
	l3 = level(g("l3.hits"), g("l3.misses"))
	return
}

func init() {
	register(Experiment{
		ID:    "ffcheck",
		Title: "Fast-forward cross-validation oracle: analytical vs simulated miss ratios",
		Paper: "standing artifact (not a paper figure): the analytical warmup model must track simulation within 2% absolute per level on LRU golden workloads",
		Run: func(quick bool) (*stats.Table, error) {
			const tiles = 4
			accesses := 96 * 1024
			if quick {
				accesses = 24 * 1024
			}
			t := stats.NewTable("Fast-forward oracle — analytic vs simulated miss ratios",
				"workload", "level", "simulated", "analytic", "abs-delta", "gated")
			var violations []string
			for _, w := range ffGoldenWorkloads() {
				sim := ffCheckRun(w, tiles, accesses, 0)
				ff := ffCheckRun(w, tiles, accesses, 1<<62)
				est, ok := ff.H.FFEstimate()
				if !ok {
					return nil, fmt.Errorf("ffcheck %s: fast-forward produced no estimate", w.name)
				}
				s1, s2, s3 := simMissRatios(sim)
				for _, lv := range []struct {
					name     string
					sim      simLevel
					ana      float64
					anaReach float64
				}{
					{"L1", s1, est.L1Miss, 1},
					{"L2", s2, est.L2Miss, est.L2Reach},
					{"L3", s3, est.L3Miss, est.L3Reach},
				} {
					d := lv.sim.miss - lv.ana
					if d < 0 {
						d = -d
					}
					// A level's miss ratio only means anything when
					// traffic reaches it; ratios of near-zero counts are
					// reported but not gated.
					gated := lv.sim.reach >= ffCheckMinReach && lv.anaReach >= ffCheckMinReach
					mark := "yes"
					if !gated {
						mark = "no (untrafficked)"
					}
					t.AddRowf(w.name, lv.name,
						fmt.Sprintf("%.4f", lv.sim.miss), fmt.Sprintf("%.4f", lv.ana),
						fmt.Sprintf("%.4f", d), mark)
					if gated && d > ffCheckTolerance {
						violations = append(violations, fmt.Sprintf(
							"%s %s: |%.4f - %.4f| = %.4f > %.2f",
							w.name, lv.name, lv.sim.miss, lv.ana, d, ffCheckTolerance))
					}
				}
			}
			if len(violations) > 0 {
				return nil, fmt.Errorf("ffcheck: analytical model diverged from simulation:\n%s\n%s",
					joinLines(violations), t.String())
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "fig25full",
		Title: "Fig 25's graph-size axis at paper scale: fast-forwarded PHI-style scatter",
		Paper: "täkō improves with data size; uk-2002 (|E|≈298M) is its largest graph — this driver reaches ≥100M-edge scale via analytical fast-forward (-full)",
		Run: func(quick bool) (*stats.Table, error) {
			type tier struct {
				name   string
				v, e   int
				window uint64
			}
			tr := tier{"quick", 128 * 1024, 2 * 1024 * 1024, 16384}
			if !quick {
				// uk-2002-class: ≥100M edges, streamed generation, O(1)
				// graph memory (workloads.EdgeStream).
				tr = tier{"full", 8 << 20, 128 << 20, 131072}
			}
			const tiles = 16
			// Exact closed-form access count: one rank load per vertex,
			// one edge-word load plus one scatter atomic per edge.
			total := uint64(tr.v) + 2*uint64(tr.e)
			cfg := system.Default(tiles)
			cfg.NoTako = true
			cfg.FastForward = total - tr.window

			s := system.New(cfg)
			es := workloads.EdgeStream{V: tr.v, E: tr.e, Seed: 2002}
			ranks := s.Alloc("ranks", uint64(tr.v)*8)
			// Edge words are read-only and zero-filled: the stream's
			// destinations come from the closed form, the loads model the
			// sequential CSR traffic. The region never materializes host
			// pages (reads of untouched simulated pages stay sparse).
			edges := s.Alloc("edges", (uint64(tr.e)*4+7)&^7)
			for t := 0; t < tiles; t++ {
				t := t
				lo, hi := t*tr.v/tiles, (t+1)*tr.v/tiles
				s.Go(t, "scatter", func(p *sim.Proc, _ *cpu.Core) {
					for src := lo; src < hi; src++ {
						contrib := s.H.Load(p, t, ranks.Word(uint64(src)))%16 + 1
						end := es.Offset(src + 1)
						for i := es.Offset(src); i < end; i++ {
							s.H.Load(p, t, edges.At(i*4&^7))
							s.H.AtomicAddLocal(p, t, ranks.Word(es.Dst(i)), contrib)
						}
					}
				})
			}
			cycles := s.Run()

			est, ok := s.H.FFEstimate()
			if !ok {
				return nil, fmt.Errorf("fig25full: fast-forward never engaged")
			}
			ffAcc := s.H.FFAccesses()
			if ffAcc != cfg.FastForward {
				return nil, fmt.Errorf("fig25full: fast-forwarded %d accesses, want %d", ffAcc, cfg.FastForward)
			}
			t := stats.NewTable("Fig 25 (paper scale) — fast-forwarded scatter",
				"tier", "vertices", "edges", "ff-accesses", "window", "est-L1-miss", "est-L2-miss", "est-L3-miss", "window-cycles", "dram-accesses")
			t.AddRowf(tr.name, tr.v, tr.e, ffAcc, tr.window,
				fmt.Sprintf("%.4f", est.L1Miss), fmt.Sprintf("%.4f", est.L2Miss),
				fmt.Sprintf("%.4f", est.L3Miss), uint64(cycles), s.H.DRAMAccesses())
			return t, nil
		},
	})
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n"
		}
		out += "  " + s
	}
	return out
}
