package exp

import (
	"fmt"

	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/morphs"
	"tako/internal/sim"
	"tako/internal/stats"
	"tako/internal/tlb"
)

func init() {
	register(Experiment{
		ID:    "fig22",
		Title: "HATS sensitivity to engine fabric size",
		Paper: "dataflow vastly outperforms an in-order core; performance plateaus by 5x5, within 1.8% of ideal",
		Run: func(quick bool) (*stats.Table, error) {
			prm := hatsParams(quick)
			t := stats.NewTable("Fig 22 — fabric size (HATS)", "engine", "cycles", "speedup-vs-baseline")
			type cfgRow struct {
				name string
				cfg  engine.Config
			}
			rows := []cfgRow{}
			for _, dim := range []int{3, 4, 5, 6, 7} {
				c := engine.DefaultConfig()
				c.FabricW, c.FabricH = dim, dim
				c.MemPEs = dim * dim * 2 / 5 // keep the paper's int:mem PE ratio
				rows = append(rows, cfgRow{fmt.Sprintf("%dx%d", dim, dim), c})
			}
			inorder := engine.DefaultConfig()
			inorder.InOrderCore = true
			rows = append(rows, cfgRow{"in-order core", inorder})
			rows = append(rows, cfgRow{"ideal", engine.IdealConfig()})
			// Task 0 is the baseline; tasks 1..N the engine configs.
			results, err := morphs.RunResults(len(rows)+1, func(i int) (morphs.Result, error) {
				if i == 0 {
					return morphs.RunHATS(morphs.HATSVertexOrdered, prm)
				}
				p := prm
				p.Engine = rows[i-1].cfg
				return morphs.RunHATS(morphs.HATSTako, p)
			})
			if err != nil {
				return nil, err
			}
			base := results[0]
			for i, row := range rows {
				r := results[i+1]
				t.AddRowf(row.name, r.Cycles, r.Speedup(base))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "fig23",
		Title: "HATS sensitivity to PE latency",
		Paper: "even at 8-cycle PEs speedup only drops from 43% to ~30%: MLP matters, not arithmetic throughput",
		Run: func(quick bool) (*stats.Table, error) {
			prm := hatsParams(quick)
			t := stats.NewTable("Fig 23 — PE latency (HATS)", "pe-latency", "cycles", "speedup-vs-baseline")
			lats := []sim.Cycle{1, 2, 4, 8}
			results, err := morphs.RunResults(len(lats)+1, func(i int) (morphs.Result, error) {
				if i == 0 {
					return morphs.RunHATS(morphs.HATSVertexOrdered, prm)
				}
				p := prm
				p.Engine = engine.DefaultConfig()
				p.Engine.PELatency = lats[i-1]
				return morphs.RunHATS(morphs.HATSTako, p)
			})
			if err != nil {
				return nil, err
			}
			base := results[0]
			for i, lat := range lats {
				t.AddRowf(fmt.Sprintf("%d cycles", lat), results[i+1].Cycles, results[i+1].Speedup(base))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "fig24",
		Title: "PHI across core microarchitectures",
		Paper: "PageRank is memory-bound: täkō's speedup is essentially unchanged across cores",
		Run: func(quick bool) (*stats.Table, error) {
			t := stats.NewTable("Fig 24 — core microarchitecture (PHI)",
				"core", "baseline-cycles", "täkō-cycles", "speedup")
			cores := []cpu.Config{cpu.LittleInOrder(), cpu.Goldmont(), cpu.BigOOO()}
			// Core-major, baseline-then-täkō: the sequential loop's order.
			results, err := morphs.RunResults(len(cores)*2, func(i int) (morphs.Result, error) {
				prm := phiParams(quick)
				prm.Core = cores[i/2]
				v := morphs.PHIBaseline
				if i%2 == 1 {
					v = morphs.PHITako
				}
				return morphs.RunPHI(v, prm)
			})
			if err != nil {
				return nil, err
			}
			for i, core := range cores {
				base, tako := results[2*i], results[2*i+1]
				t.AddRowf(core.Name, base.Cycles, tako.Cycles, tako.Speedup(base))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "fig25",
		Title: "PHI scalability: cores and graph sizes",
		Paper: "täkō consistently outperforms UB (≈34%, 32%, 21% at 8, 16, 36 cores) and improves with data size",
		Run: func(quick bool) (*stats.Table, error) {
			t := stats.NewTable("Fig 25 — PHI scalability",
				"cores", "edges", "UB-speedup", "täkō-speedup", "täkō-vs-UB")
			type row struct {
				tiles int
				sz    [2]int
			}
			rows := []row{
				{8, [2]int{16 * 1024, 160 * 1024}},
				{8, [2]int{32 * 1024, 320 * 1024}},
				{16, [2]int{32 * 1024, 320 * 1024}},
			}
			if quick {
				rows = rows[:2]
			}
			variants := []morphs.PHIVariant{morphs.PHIBaseline, morphs.PHIUB, morphs.PHITako}
			// Row-major, baseline/UB/täkō within each row.
			results, err := morphs.RunResults(len(rows)*len(variants), func(i int) (morphs.Result, error) {
				rw := rows[i/len(variants)]
				prm := phiParams(true)
				prm.Tiles, prm.Threads = rw.tiles, rw.tiles
				prm.V, prm.E = rw.sz[0], rw.sz[1]
				return morphs.RunPHI(variants[i%len(variants)], prm)
			})
			if err != nil {
				return nil, err
			}
			for i, rw := range rows {
				base, ub, tako := results[3*i], results[3*i+1], results[3*i+2]
				t.AddRowf(rw.tiles, rw.sz[1], ub.Speedup(base), tako.Speedup(base),
					pct(float64(ub.Cycles)/float64(tako.Cycles)-1))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "sweep-cbbuf",
		Title: "Callback-buffer size sweep (NVM flush pressure)",
		Paper: "performance plateaus at 4 entries; the paper uses 8",
		Run: func(quick bool) (*stats.Table, error) {
			t := stats.NewTable("§9 — callback-buffer size (NVM)", "entries", "cycles", "vs-8-entries")
			sizes := []int{1, 2, 4, 8, 16, 64}
			results, err := morphs.RunResults(len(sizes), func(i int) (morphs.Result, error) {
				prm := morphs.DefaultNVMParams(64 << 10)
				prm.Tiles = 4
				prm.Engine = engine.DefaultConfig()
				prm.Engine.CallbackBuffer = sizes[i]
				return morphs.RunNVM(morphs.NVMTako, prm)
			})
			if err != nil {
				return nil, err
			}
			var ref morphs.Result
			for i, n := range sizes {
				if n == 8 {
					ref = results[i]
				}
			}
			for i, n := range sizes {
				r := results[i]
				t.AddRowf(n, r.Cycles, pct(float64(r.Cycles)/float64(ref.Cycles)-1))
			}
			return t, nil
		},
	})

	register(Experiment{
		ID:    "sweep-rtlb",
		Title: "rTLB size sweep (HATS)",
		Paper: "performance varies by at most 2.1% from 256 to 1024 entries; 256 entries with 2MB pages suffice",
		Run: func(quick bool) (*stats.Table, error) {
			prm := hatsParams(true)
			t := stats.NewTable("§9 — rTLB size (HATS)", "entries", "pages", "cycles", "vs-256/2MB")
			type cfg struct {
				entries int
				bits    uint
			}
			cfgs := []cfg{{256, 21}, {512, 21}, {1024, 21}, {256, 12}, {1024, 12}}
			results, err := morphs.RunResults(len(cfgs), func(i int) (morphs.Result, error) {
				p := prm
				// rTLB config lives in the hierarchy config; thread it
				// through a dedicated engine run.
				p.RTLB = &tlb.Config{
					Name: "rtlb", Entries: cfgs[i].entries, PageBits: cfgs[i].bits,
					HitLatency: 1, WalkLatency: 30,
				}
				return morphs.RunHATS(morphs.HATSTako, p)
			})
			if err != nil {
				return nil, err
			}
			ref := results[0]
			for i, c := range cfgs {
				pages := "2MB"
				if c.bits == 12 {
					pages = "4KB"
				}
				t.AddRowf(c.entries, pages, results[i].Cycles,
					pct(float64(results[i].Cycles)/float64(ref.Cycles)-1))
			}
			return t, nil
		},
	})
}
