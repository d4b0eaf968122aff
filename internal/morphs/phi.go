package morphs

import (
	"fmt"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
	"tako/internal/workloads"
)

// PHIVariant selects an implementation of the commutative scatter-update
// study (§8.1, Figs 13-14): one push iteration of PageRank.
type PHIVariant string

// PHI variants (Fig 13's bars).
const (
	PHIBaseline PHIVariant = "baseline" // atomic adds straight to vertex data
	PHIUB       PHIVariant = "ub"       // software update batching / propagation blocking [14,70]
	PHITako     PHIVariant = "tako"     // PHI on täkō: phantom buffer + onWriteback
	PHIIdeal    PHIVariant = "ideal"    // täkō with the idealized engine
	// PHIHier is hierarchical PHI (the paper's footnote 3: "täkō's
	// design allows hierarchical PHI as described in [95]"): a PRIVATE
	// phantom buffer per tile combines updates locally; its
	// onWriteback forwards combined updates into the SHARED PHI
	// Morph — the §4.3-permitted PRIVATE→SHARED direction.
	PHIHier PHIVariant = "hier"
)

// AllPHIVariants lists Fig 13's bars in order.
var AllPHIVariants = []PHIVariant{PHIBaseline, PHIUB, PHITako, PHIIdeal}

// PHIParams sizes the study. The paper runs a 16 M-vertex / 160 M-edge
// synthetic graph on 16 tiles; we scale the graph and the caches
// together (DESIGN.md §7) so vertex data still exceeds the LLC.
type PHIParams struct {
	V, E        int
	Communities int
	PIntra      float64
	Tiles       int
	Threads     int
	CacheScale  int
	// BinRangeWords is the vertex-data range one bin covers (sized to
	// fit a private cache during the bin phase).
	BinRangeWords int
	// Threshold is PHI's policy knob: lines with at least this many
	// buffered updates apply in place; others are logged to bins.
	Threshold int
	Seed      int64
	Core      cpu.Config
	Engine    engine.Config
}

// DefaultPHIParams returns the scaled study configuration.
func DefaultPHIParams() PHIParams {
	return PHIParams{
		V: 32 * 1024, E: 320 * 1024,
		Communities: 64, PIntra: 0.0, // PHI's graph is uniform-synthetic
		Tiles: 16, Threads: 16, CacheScale: 64,
		BinRangeWords: 256,
		Threshold:     6,
		Seed:          1,
		Core:          cpu.Goldmont(),
		Engine:        engine.DefaultConfig(),
	}
}

// phiView is the per-bank engine-local state of the PHI Morph: cursors
// into this bank's update bins.
// phiHierView is the engine-local state of hierarchical PHI's private
// combining Morph: its own phantom base and the shared Morph's region.
type phiHierView struct {
	base      mem.Addr
	shared    mem.Region
	forwarded uint64 // updates pushed into the SHARED Morph by this tile
}

type phiView struct {
	tile    int
	cursors []uint64   // per-bin flushed offsets (in words)
	wc      []mem.Line // per-bin write-combining buffers (engine SRAM)
	wcN     []int      // valid words per buffer
	// Study counters live on the view — one per tile, touched only by
	// that tile's callbacks; runPHI sums the views after the run.
	inPlace uint64
	binned  uint64
}

// packUpdate packs a scatter update into one word: dst in the high half,
// contribution in the low half (both fit 32 bits at our scales).
func packUpdate(dst int, val uint64) uint64 {
	if val == 0 || val >= 1<<32 || dst >= 1<<31 {
		panic("phi: update does not fit packed format")
	}
	return uint64(dst)<<32 | val
}

func unpackUpdate(w uint64) (dst int, val uint64) {
	return int(w >> 32), w & 0xffffffff
}

func roundUp8(n uint64) uint64 { return (n + 7) &^ 7 }

// RunPHI executes one variant of the PageRank scatter phase (plus bin
// and vertex phases), verifies the final vertex data against the
// functional reference, and returns its Result. Runs are memoized in
// the run window, if one is armed (system.Memo).
func RunPHI(v PHIVariant, prm PHIParams) (Result, error) {
	return cachedRun("phi", string(v), prm, func() (Result, error) {
		return runPHI(v, prm)
	})
}

func runPHI(v PHIVariant, prm PHIParams) (Result, error) {
	cfg := system.Scaled(prm.Tiles, prm.CacheScale)
	cfg.Core = prm.Core
	cfg.Engine = prm.Engine
	if v == PHIBaseline || v == PHIUB {
		cfg.NoTako = true
	}
	if v == PHIIdeal {
		cfg.Engine = engine.IdealConfig()
	}
	s := system.New(cfg)

	g := workloads.GenUniform(prm.V, prm.E, prm.Seed)
	if prm.PIntra > 0 {
		g = workloads.GenCommunity(prm.V, prm.E, prm.Communities, prm.PIntra, prm.Seed)
	}
	gm := g.Layout(s.Space, s.H.DRAM.Store())
	ranks := s.Alloc("ranks", uint64(prm.V)*8)
	for i := 0; i < prm.V; i++ {
		s.H.DRAM.Store().WriteU64(ranks.Word(uint64(i)), workloads.InitialRank)
	}
	// Reference: one scatter phase over initial ranks.
	initRanks := make([]uint64, prm.V)
	for i := range initRanks {
		initRanks[i] = workloads.InitialRank
	}
	want := workloads.ApplyVisits(g, func(f func(workloads.EdgeVisit)) {
		workloads.VertexOrderedEdges(g, initRanks, f)
	})

	numBins := (prm.V + prm.BinRangeWords - 1) / prm.BinRangeWords
	threads := prm.Threads
	if threads > prm.Tiles {
		threads = prm.Tiles
	}
	sliceOf := func(t int) (lo, hi int) {
		lo = t * prm.V / threads
		hi = (t + 1) * prm.V / threads
		return
	}

	var runErr error
	var inPlaceTotal, binnedTotal, forwardedTotal uint64
	var morph *core.Morph
	privMorphs := make([]*core.Morph, threads)

	// edgePhase runs fn(src, dst, contrib) over each thread's slice,
	// loading ranks/offsets/neighbors through the hierarchy.
	edgeLoop := func(p *sim.Proc, c *cpu.Core, t int, upd func(p *sim.Proc, c *cpu.Core, dst int, contrib uint64)) {
		lo, hi := sliceOf(t)
		for src := lo; src < hi; src++ {
			off := c.Load(p, gm.OffsetAddr(src))
			end := c.Load(p, gm.OffsetAddr(src+1))
			if off == end {
				continue
			}
			rank := c.Load(p, ranks.Word(uint64(src)))
			contrib := rank / (end - off)
			c.Compute(p, 2)
			for e := off; e < end; e++ {
				dst := int(c.Load(p, gm.NeighborAddr(e)))
				c.Compute(p, 2)
				upd(p, c, dst, contrib)
			}
		}
	}

	// vertexPhase: every variant reads the accumulated vertex data and
	// writes the new rank.
	vertexPhase := func(p *sim.Proc, c *cpu.Core, t int) {
		lo, hi := sliceOf(t)
		for vtx := lo; vtx < hi; vtx++ {
			nv := c.Load(p, gm.VertexAddr(vtx))
			c.Compute(p, 3) // damping etc.
			c.Store(p, ranks.Word(uint64(vtx)), nv)
		}
	}

	switch v {
	case PHIBaseline:
		bar := s.Barrier(threads)
		s.H.DRAM.SetPhase("edge")
		for t := 0; t < threads; t++ {
			t := t
			s.Go(t, "phi-base", func(p *sim.Proc, c *cpu.Core) {
				edgeLoop(p, c, t, func(p *sim.Proc, c *cpu.Core, dst int, contrib uint64) {
					c.AtomicAddLocal(p, gm.VertexAddr(dst), contrib)
				})
				bar.Arrive(p)
				s.H.DRAM.SetPhase("vertex")
				vertexPhase(p, c, t)
			})
		}

	case PHIUB:
		// Per-thread private bins: the edge phase packs each update
		// into one word (dst<<32 | contrib) and streams full lines to
		// the bins with write-combining non-temporal stores, as real
		// propagation blocking does [14, 70]; the bin phase applies
		// them with locality.
		binCap := roundUp8(uint64(2*prm.E/(threads*numBins) + 64))
		binBuf := s.Alloc("ub.bins", uint64(threads*numBins)*binCap*8)
		binBase := func(t, b int) mem.Addr {
			return binBuf.Base + mem.Addr(uint64(t*numBins+b)*binCap*8)
		}
		cursors := make([][]uint64, threads) // words flushed per bin
		wc := make([][]mem.Line, threads)    // write-combining buffers
		wcN := make([][]int, threads)
		for t := range cursors {
			cursors[t] = make([]uint64, numBins)
			wc[t] = make([]mem.Line, numBins)
			wcN[t] = make([]int, numBins)
		}
		bar := s.Barrier(threads)
		s.H.DRAM.SetPhase("edge")
		for t := 0; t < threads; t++ {
			t := t
			s.Go(t, "phi-ub", func(p *sim.Proc, c *cpu.Core) {
				edgeLoop(p, c, t, func(p *sim.Proc, c *cpu.Core, dst int, contrib uint64) {
					b := dst / prm.BinRangeWords
					wc[t][b].SetWord(wcN[t][b], packUpdate(dst, contrib))
					wcN[t][b]++
					c.Compute(p, 2) // pack + bin index
					if wcN[t][b] == mem.WordsPerLine {
						if cursors[t][b]+8 > binCap {
							panic("ub bin overflow: raise slack")
						}
						c.StoreLineNT(p, binBase(t, b)+mem.Addr(cursors[t][b]*8), &wc[t][b])
						cursors[t][b] += 8
						wc[t][b] = mem.Line{}
						wcN[t][b] = 0
					}
				})
				// Drain partial write-combining buffers.
				for b := 0; b < numBins; b++ {
					if wcN[t][b] > 0 {
						c.StoreLineNT(p, binBase(t, b)+mem.Addr(cursors[t][b]*8), &wc[t][b])
						cursors[t][b] += 8
						wcN[t][b] = 0
					}
				}
				bar.Arrive(p)
				s.H.DRAM.SetPhase("bin")
				// Bin phase: thread t applies bins t, t+threads, ...
				for b := t; b < numBins; b += threads {
					for tt := 0; tt < threads; tt++ {
						n := cursors[tt][b]
						base := binBase(tt, b)
						for cur := uint64(0); cur < n; cur++ {
							w := c.Load(p, base+mem.Addr(cur*8))
							if w == 0 {
								continue // zero padding in the final line
							}
							dst, val := unpackUpdate(w)
							c.Compute(p, 1)
							c.AtomicAddLocal(p, gm.VertexAddr(dst), val)
						}
					}
				}
				bar.Arrive(p)
				s.H.DRAM.SetPhase("vertex")
				vertexPhase(p, c, t)
			})
		}

	case PHITako, PHIIdeal, PHIHier:
		// Bin storage per L3 bank; updates are packed one word each
		// and streamed from the engines with write-combining NT
		// stores, mirroring PHI's compact update logs [95].
		binCap := roundUp8(uint64(2*prm.E/(prm.Tiles*numBins) + 64))
		binBuf := s.Alloc("phi.bins", uint64(prm.Tiles*numBins)*binCap*8)
		binBase := func(bank, b int) mem.Addr {
			return binBuf.Base + mem.Addr(uint64(bank*numBins+b)*binCap*8)
		}
		spec := core.MorphSpec{
			Name: "phi",
			// onMiss: set line to the identity (zero) — the line is
			// already zero-allocated; just the fabric ops.
			OnMiss: &core.Callback{Instrs: 2, CritPath: 1, Fn: func(ctx *engine.Ctx) {}},
			// onWriteback: count updates; apply in place when dense,
			// log to this bank's bin otherwise (Table 4; ~21 instrs,
			// 35 cycles in the paper).
			OnWriteback: &core.Callback{
				Instrs: 21, CritPath: 8,
				Fn: func(ctx *engine.Ctx) {
					view := ctx.View().(*phiView)
					firstVtx := int((ctx.Addr - morph.Region.Base) / 8)
					n := 0
					for i := 0; i < mem.WordsPerLine; i++ {
						if ctx.Line.Word(i) != 0 {
							n++
						}
					}
					if n == 0 {
						return
					}
					if n >= prm.Threshold {
						// Dense: apply updates in place. The target
						// vertex words share one line, so this costs
						// about one memory access per writeback.
						for i := 0; i < mem.WordsPerLine; i++ {
							if val := ctx.Line.Word(i); val != 0 {
								ctx.AtomicAddWord(gm.VertexAddr(firstVtx+i), val)
								view.inPlace++
							}
						}
						return
					}
					// Sparse: log packed updates to this bank's bin
					// through the view's write-combining buffer. State
					// updates happen before any memory op so that
					// concurrent callbacks on this engine cannot
					// clobber each other's slots.
					for i := 0; i < mem.WordsPerLine; i++ {
						val := ctx.Line.Word(i)
						if val == 0 {
							continue
						}
						dst := firstVtx + i
						b := dst / prm.BinRangeWords
						view.wc[b].SetWord(view.wcN[b], packUpdate(dst, val))
						view.wcN[b]++
						view.binned++
						if view.wcN[b] == mem.WordsPerLine {
							cur := view.cursors[b]
							view.cursors[b] = cur + 8
							if cur+8 > binCap {
								panic("phi bin overflow: raise slack")
							}
							full := view.wc[b]
							view.wc[b] = mem.Line{}
							view.wcN[b] = 0
							ctx.StoreLineNT(binBase(view.tile, b)+mem.Addr(cur*8), &full)
						}
					}
				},
			},
			NewView: func(tile int) interface{} {
				return &phiView{
					tile:    tile,
					cursors: make([]uint64, numBins),
					wc:      make([]mem.Line, numBins),
					wcN:     make([]int, numBins),
				}
			},
		}
		// Hierarchical PHI: a PRIVATE combining buffer per tile whose
		// onWriteback forwards each combined update into the SHARED
		// Morph (footnote 3 / [95]).
		privSpec := core.MorphSpec{
			Name:   "phi-l2",
			OnMiss: &core.Callback{Instrs: 2, CritPath: 1, Fn: func(ctx *engine.Ctx) {}},
			OnWriteback: &core.Callback{
				Instrs: 16, CritPath: 6,
				Fn: func(ctx *engine.Ctx) {
					view := ctx.View().(*phiHierView)
					firstVtx := int((ctx.Addr - view.base) / 8)
					for i := 0; i < mem.WordsPerLine; i++ {
						if val := ctx.Line.Word(i); val != 0 {
							ctx.AtomicAddRemote(view.shared.Word(uint64(firstVtx+i)), val)
							view.forwarded++
						}
					}
				},
			},
			NewView: func(tile int) interface{} { return &phiHierView{} },
		}
		bar := s.Barrier(threads)
		s.H.DRAM.SetPhase("edge")
		for t := 0; t < threads; t++ {
			t := t
			s.Go(t, "phi-tako", func(p *sim.Proc, c *cpu.Core) {
				if t == 0 {
					m, err := s.Tako.RegisterPhantom(p, spec, core.Shared, uint64(prm.V)*8, 0)
					if err != nil {
						runErr = err
					} else {
						morph = m
					}
				}
				// Publish the registration (or its failure) through a
				// barrier round: the barrier edge makes morph/runErr
				// visible to every thread.
				bar.Arrive(p)
				if runErr != nil {
					return
				}
				if v == PHIHier {
					m, err := s.Tako.RegisterPhantom(p, privSpec, core.Private, uint64(prm.V)*8, t)
					if err != nil {
						runErr = err
						return
					}
					vw := m.View(t).(*phiHierView)
					vw.base = m.Region.Base
					vw.shared = morph.Region
					privMorphs[t] = m
					// Edge phase: combine locally in the tile's own
					// phantom buffer — no cross-chip traffic per push.
					edgeLoop(p, c, t, func(p *sim.Proc, c *cpu.Core, dst int, contrib uint64) {
						c.AtomicAddLocal(p, m.Region.Word(uint64(dst)), contrib)
					})
					// Drain the private buffer into the shared level.
					s.Tako.FlushData(p, m)
					s.Tako.Unregister(p, m)
				} else {
					edgeLoop(p, c, t, func(p *sim.Proc, c *cpu.Core, dst int, contrib uint64) {
						// Push the update to the phantom buffer (RMO).
						c.AtomicAdd(p, morph.Region.Word(uint64(dst)), contrib)
					})
					c.DrainRMOs(p)
				}
				bar.Arrive(p)
				if t == 0 {
					// Flush buffered updates: remaining lines go
					// through onWriteback (bin or in-place); then
					// drain the views' partial write-combining lines.
					s.Tako.FlushData(p, morph)
					for bank := 0; bank < prm.Tiles; bank++ {
						view := morph.View(bank).(*phiView)
						for b := 0; b < numBins; b++ {
							if view.wcN[b] > 0 {
								c.StoreLineNT(p, binBase(bank, b)+mem.Addr(view.cursors[b]*8), &view.wc[b])
								view.cursors[b] += 8
								view.wcN[b] = 0
							}
						}
					}
					s.H.DRAM.SetPhase("bin")
				}
				bar.Arrive(p)
				// Bin phase: apply this thread's share of all banks'
				// bins.
				for b := t; b < numBins; b += threads {
					for bank := 0; bank < prm.Tiles; bank++ {
						view := morph.View(bank).(*phiView)
						n := view.cursors[b]
						base := binBase(bank, b)
						for cur := uint64(0); cur < n; cur++ {
							w := c.Load(p, base+mem.Addr(cur*8))
							if w == 0 {
								continue
							}
							dst, val := unpackUpdate(w)
							c.Compute(p, 1)
							c.AtomicAddLocal(p, gm.VertexAddr(dst), val)
						}
					}
				}
				bar.Arrive(p)
				if t == 0 {
					s.H.DRAM.SetPhase("vertex")
				}
				vertexPhase(p, c, t)
			})
		}

	default:
		return Result{}, fmt.Errorf("unknown PHI variant %q", v)
	}

	cycles := s.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	// Fold the per-view study counters (each touched only by its own
	// tile's callbacks) into run-wide totals.
	if morph != nil {
		for bank := 0; bank < prm.Tiles; bank++ {
			view := morph.View(bank).(*phiView)
			inPlaceTotal += view.inPlace
			binnedTotal += view.binned
		}
	}
	for _, m := range privMorphs {
		if m != nil {
			forwardedTotal += m.View(m.Tile).(*phiHierView).forwarded
		}
	}
	// Verify the vertex phase wrote reference results into ranks.
	bad := 0
	first := -1
	var gotSum, wantSum uint64
	for i := 0; i < prm.V; i++ {
		got := s.H.DebugReadWord(ranks.Word(uint64(i)))
		gotSum += got
		wantSum += want[i]
		if got != want[i] {
			bad++
			if first < 0 {
				first = i
			}
		}
	}
	if bad > 0 {
		vline := gm.VertexAddr(first).Line()
		return Result{}, fmt.Errorf("%s: %d/%d vertices wrong (first %d: got %d want %d); sum got %d want %d; rmo=%d cbwb=%d inplace=%d binned=%d flush=%d\nvertex line %v history: %v",
			v, bad, prm.V, first, s.H.DebugReadWord(ranks.Word(uint64(first))), want[first],
			gotSum, wantSum,
			s.H.Metrics.Get("rmo.issued"), s.H.Metrics.Get("cb.onWriteback"),
			inPlaceTotal, binnedTotal, s.H.Metrics.Get("flush.lines"),
			vline, s.H.DebugHomeHistory(vline))
	}
	r := collect(s, "phi", string(v), cycles)
	r.Extra["updates.inplace"] = float64(inPlaceTotal)
	r.Extra["updates.binned"] = float64(binnedTotal)
	r.Extra["updates.forwarded"] = float64(forwardedTotal)
	return r, nil
}

// RunPHIAll runs every variant (Fig 13 + Fig 14 inputs), fanning
// independent variants across the scheduler's workers.
func RunPHIAll(prm PHIParams) (map[PHIVariant]Result, error) {
	return runAllVariants(AllPHIVariants, func(v PHIVariant) (Result, error) {
		return RunPHI(v, prm)
	})
}
