package morphs

import (
	"fmt"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
	"tako/internal/tlb"
	"tako/internal/workloads"
)

// HATSVariant selects an implementation of the decoupled graph-traversal
// study (§8.2, Figs 16-17): one PageRank scatter iteration on a single
// thread over a community graph.
type HATSVariant string

// HATS variants (Fig 16's bars).
const (
	HATSVertexOrdered HATSVariant = "vertex-ordered" // baseline memory-order traversal
	HATSSoftwareBDFS  HATSVariant = "sw-bdfs"        // BDFS on the core: better locality, worse control flow
	HATSTako          HATSVariant = "tako"           // HATS on täkō: phantom edge stream filled by onMiss
	HATSIdeal         HATSVariant = "ideal"          // täkō with the idealized engine
)

// AllHATSVariants lists Fig 16's bars in order.
var AllHATSVariants = []HATSVariant{HATSVertexOrdered, HATSSoftwareBDFS, HATSTako, HATSIdeal}

// HATSParams sizes the study: a community-structured graph (uk-2002's
// key property) scaled with the caches so vertex data exceeds the LLC.
type HATSParams struct {
	V, E        int
	Communities int
	PIntra      float64
	MaxDepth    int
	Tiles       int
	CacheScale  int
	Seed        int64
	Core        cpu.Config
	Engine      engine.Config
	// RTLB overrides the engines' reverse-TLB configuration (the §9
	// rTLB sweep); nil keeps the default (256 entries, 2 MB pages).
	RTLB *tlb.Config
	// NoPrefetch disables the L2 strided prefetcher — an ablation of
	// the stream decoupling: without prefetches running ahead of the
	// core, every stream line's onMiss lands on the critical path.
	NoPrefetch bool
}

// DefaultHATSParams returns the scaled study configuration.
func DefaultHATSParams() HATSParams {
	return HATSParams{
		V: 32 * 1024, E: 320 * 1024,
		Communities: 512, PIntra: 0.95, MaxDepth: 8,
		Tiles: 16, CacheScale: 32,
		Seed:   7,
		Core:   cpu.Goldmont(),
		Engine: engine.DefaultConfig(),
	}
}

// hatsView is the engine-local state of the HATS Morph: the traversal
// iterator (stack, visited, cursors — the scheduler state HATS keeps in
// hardware [92]) and the unprocessed-edge log cursor.
type hatsView struct {
	iter      *workloads.BDFSIter
	logCursor uint64
	logged    uint64
}

// RunHATS executes one variant of the single-threaded edge phase plus
// the vertex phase, verifies against the reference, and returns its
// Result. Runs are memoized in the run window, if one is
// armed (system.Memo).
func RunHATS(v HATSVariant, prm HATSParams) (Result, error) {
	return cachedRun("hats", string(v), hatsCacheKey(prm), func() (Result, error) {
		return runHATS(v, prm)
	})
}

func runHATS(v HATSVariant, prm HATSParams) (Result, error) {
	cfg := system.Scaled(prm.Tiles, prm.CacheScale)
	cfg.Core = prm.Core
	cfg.Engine = prm.Engine
	if prm.RTLB != nil {
		cfg.Hier.RTLB = *prm.RTLB
	}
	if prm.NoPrefetch {
		cfg.Hier.PrefetchDegree = 0
	}
	switch v {
	case HATSVertexOrdered, HATSSoftwareBDFS:
		cfg.NoTako = true
	case HATSIdeal:
		cfg.Engine = engine.IdealConfig()
	}
	s := system.New(cfg)

	g := workloads.GenCommunity(prm.V, prm.E, prm.Communities, prm.PIntra, prm.Seed)
	gm := g.Layout(s.Space, s.H.DRAM.Store())
	ranks := s.Alloc("ranks", uint64(prm.V)*8)
	initRanks := make([]uint64, prm.V)
	for i := range initRanks {
		initRanks[i] = workloads.InitialRank
		s.H.DRAM.Store().WriteU64(ranks.Word(uint64(i)), workloads.InitialRank)
	}
	// Packed visited bitmap for the software BDFS.
	visitedRegion := s.Alloc("visited", uint64(prm.V/64+1)*8)
	// Unprocessed-edge log for täkō (generously sized; evictions of
	// unread stream lines are rare, §8.2).
	logRegion := s.Alloc("hats.log", uint64(prm.E)*8+4096)

	want := workloads.ApplyVisits(g, func(f func(workloads.EdgeVisit)) {
		workloads.VertexOrderedEdges(g, initRanks, f)
	})

	var runErr error
	var processed, logProcessed uint64

	// update applies one edge visit on the core (single thread: plain
	// read-modify-write).
	update := func(p *sim.Proc, c *cpu.Core, dst int, contrib uint64) {
		old := c.Load(p, gm.VertexAddr(dst))
		c.Compute(p, 1)
		c.Store(p, gm.VertexAddr(dst), old+contrib)
	}

	vertexPhase := func(p *sim.Proc, c *cpu.Core) {
		s.H.DRAM.SetPhase("vertex")
		for vtx := 0; vtx < prm.V; vtx++ {
			nv := c.Load(p, gm.VertexAddr(vtx))
			c.Compute(p, 3)
			c.Store(p, ranks.Word(uint64(vtx)), nv)
		}
	}

	switch v {
	case HATSVertexOrdered:
		s.H.DRAM.SetPhase("edge")
		s.Go(0, "hats-vo", func(p *sim.Proc, c *cpu.Core) {
			for src := 0; src < prm.V; src++ {
				off := c.Load(p, gm.OffsetAddr(src))
				end := c.Load(p, gm.OffsetAddr(src+1))
				c.Branch(p, false) // vertex loop: well predicted
				if off == end {
					continue
				}
				rank := c.Load(p, ranks.Word(uint64(src)))
				contrib := rank / (end - off)
				c.Compute(p, 2)
				for e := off; e < end; e++ {
					dst := int(c.Load(p, gm.NeighborAddr(e)))
					c.Compute(p, 2)
					c.Branch(p, false)
					update(p, c, dst, contrib)
					processed++
				}
			}
			vertexPhase(p, c)
		})

	case HATSSoftwareBDFS:
		s.H.DRAM.SetPhase("edge")
		s.Go(0, "hats-bdfs", func(p *sim.Proc, c *cpu.Core) {
			it := workloads.NewBDFSIter(g, initRanks, prm.MaxDepth)
			it.Touch = func(kind workloads.TouchKind, idx int) {
				// The traversal's bookkeeping runs on the core. The
				// visited set is a packed bitmap (64 vertices per
				// word); the top-of-stack edge cursor stays in a
				// register.
				switch kind {
				case workloads.TouchOffset:
					c.Load(p, gm.OffsetAddr(idx))
					c.Store(p, visitedRegion.Word(uint64(idx/64)), 1) // mark visited
				case workloads.TouchNeighbor:
					c.Load(p, gm.NeighborAddr(uint64(idx)))
				case workloads.TouchRank:
					c.Load(p, ranks.Word(uint64(idx)))
				case workloads.TouchVisited:
					c.Load(p, visitedRegion.Word(uint64(idx/64)))
				case workloads.TouchCursor:
					c.Compute(p, 1)
				}
			}
			for {
				ev, ok := it.Next()
				// BDFS control flow is data dependent: the stack
				// push/pop and visited checks mispredict often (the
				// reason HATS moved it off the core, §8.2).
				c.Compute(p, 4)
				c.Branch(p, it.Emitted()%5 == 0)
				if !ok {
					break
				}
				update(p, c, ev.Dst, ev.Contrib)
				processed++
			}
			vertexPhase(p, c)
		})

	case HATSTako, HATSIdeal:
		var morph *core.Morph
		spec := core.MorphSpec{
			Name:           "hats",
			SequentialMiss: true, // shared traversal stack (§8.2)
			// onMiss: run BDFS to fill the line with 8 packed edge
			// visits (94 instrs across the HATS Morph in the paper).
			OnMiss: &core.Callback{
				Instrs: 60, CritPath: 6,
				Fn: func(ctx *engine.Ctx) {
					view := ctx.View().(*hatsView)
					it := view.iter
					it.Touch = func(kind workloads.TouchKind, idx int) {
						// Graph structure reads run on the engine
						// through its L1d; the scheduler state
						// (stack/visited/cursors) lives in the
						// engine (HATS hardware state [92]).
						switch kind {
						case workloads.TouchOffset:
							ctx.LoadWord(gm.OffsetAddr(idx))
						case workloads.TouchNeighbor:
							ctx.LoadWord(gm.NeighborAddr(uint64(idx)))
						case workloads.TouchRank:
							ctx.LoadWord(ranks.Word(uint64(idx)))
						}
					}
					for i := 0; i < mem.WordsPerLine; i++ {
						ev, ok := it.Next()
						if !ok {
							break
						}
						ctx.Line.SetWord(i, packUpdate(ev.Dst, ev.Contrib))
					}
				},
			},
			// onEviction/onWriteback: log unprocessed edges (Table 5).
			OnEviction:  &core.Callback{Instrs: 18, CritPath: 4, Fn: func(ctx *engine.Ctx) { hatsLogUnread(ctx, logRegion) }},
			OnWriteback: &core.Callback{Instrs: 18, CritPath: 4, Fn: func(ctx *engine.Ctx) { hatsLogUnread(ctx, logRegion) }},
			NewView: func(tile int) interface{} {
				return &hatsView{iter: workloads.NewBDFSIter(g, initRanks, prm.MaxDepth)}
			},
		}
		s.H.DRAM.SetPhase("edge")
		s.Go(0, "hats-tako", func(p *sim.Proc, c *cpu.Core) {
			m, err := s.Tako.RegisterPhantom(p, spec, core.Private, uint64(prm.E)*8, 0)
			if err != nil {
				runErr = err
				return
			}
			morph = m
			// Stream phase: read packed visits in order, marking each
			// processed with an atomic exchange (§8.2).
			for i := 0; i < prm.E; i++ {
				w := c.AtomicExchange(p, m.Region.Word(uint64(i)), 0)
				c.Branch(p, false)
				if w == 0 {
					continue // unfilled slot (visit was logged)
				}
				dst, contrib := unpackUpdate(w)
				c.Compute(p, 1)
				update(p, c, dst, contrib)
				processed++
			}
			// Recover edges evicted before processing: flush the
			// stream (logging leftovers), then drain the log.
			s.H.DRAM.SetPhase("log")
			s.Tako.FlushData(p, morph)
			view := morph.View(0).(*hatsView)
			for j := uint64(0); j < view.logCursor; j++ {
				w := c.Load(p, logRegion.Word(j))
				if w == 0 {
					continue
				}
				dst, contrib := unpackUpdate(w)
				c.Compute(p, 1)
				update(p, c, dst, contrib)
				processed++
				logProcessed++
			}
			s.Tako.Unregister(p, morph)
			vertexPhase(p, c)
		})

	default:
		return Result{}, fmt.Errorf("unknown HATS variant %q", v)
	}

	cycles := s.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	if processed != uint64(prm.E) {
		return Result{}, fmt.Errorf("%s: processed %d edges, want %d (log drained %d)",
			v, processed, prm.E, logProcessed)
	}
	for i := 0; i < prm.V; i++ {
		if got := s.H.DebugReadWord(ranks.Word(uint64(i))); got != want[i] {
			return Result{}, fmt.Errorf("%s: vertex %d = %d, want %d", v, i, got, want[i])
		}
	}
	r := collect(s, "hats", string(v), cycles)
	r.Extra["edges.logged"] = float64(logProcessed)
	r.Extra["mispredicts.per.edge"] = float64(r.Mispredicts) / float64(prm.E)
	return r, nil
}

// hatsLogUnread appends a stream line's unprocessed visits to the log.
func hatsLogUnread(ctx *engine.Ctx, logRegion mem.Region) {
	view := ctx.View().(*hatsView)
	for i := 0; i < mem.WordsPerLine; i++ {
		w := ctx.Line.Word(i)
		if w == 0 {
			continue
		}
		cur := view.logCursor
		view.logCursor = cur + 1
		view.logged++
		ctx.StoreWord(logRegion.Word(cur), w)
	}
}

// RunHATSAll runs every variant (Fig 16 + Fig 17 inputs), fanning
// independent variants across the scheduler's workers.
func RunHATSAll(prm HATSParams) (map[HATSVariant]Result, error) {
	return runAllVariants(AllHATSVariants, func(v HATSVariant) (Result, error) {
		return RunHATS(v, prm)
	})
}
