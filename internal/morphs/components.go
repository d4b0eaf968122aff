package morphs

import (
	"fmt"
	"math"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
	"tako/internal/workloads"
)

// Connected components via min-label propagation is not one of the
// paper's figures — it demonstrates the generality claim behind PHI
// (§8.1): the buffered-update Morph works for *any* commutative
// operator, not just addition. Labels start as vertex ids; each round
// scatters min(label) along every edge (both directions); after R
// rounds, labels equal the functional reference exactly.

// CCVariant selects the implementation.
type CCVariant string

// Connected-components variants.
const (
	CCBaseline CCVariant = "baseline" // local atomic min per edge
	CCTako     CCVariant = "tako"     // min-PHI: phantom buffer of partial minima
)

// CCParams sizes the study.
type CCParams struct {
	V, E        int
	Communities int
	PIntra      float64
	Rounds      int
	Tiles       int
	Threads     int
	CacheScale  int
	Seed        int64
}

// DefaultCCParams returns the study configuration.
func DefaultCCParams() CCParams {
	return CCParams{
		V: 16 * 1024, E: 160 * 1024,
		Communities: 64, PIntra: 0.9,
		Rounds: 3,
		Tiles:  8, Threads: 8, CacheScale: 64,
		Seed: 21,
	}
}

// ccReference computes the fixed-round label propagation functionally
// (pure scatter over the already-symmetrized graph).
func ccReference(g *workloads.Graph, rounds int) []uint64 {
	cur := make([]uint64, g.V)
	for i := range cur {
		cur[i] = uint64(i)
	}
	for r := 0; r < rounds; r++ {
		next := make([]uint64, g.V)
		copy(next, cur)
		for src := 0; src < g.V; src++ {
			for _, d := range g.Neigh(src) {
				if cur[src] < next[d] {
					next[d] = cur[src]
				}
			}
		}
		cur = next
	}
	return cur
}

const ccIdentity = math.MaxUint64

// RunCC executes one variant of fixed-round connected components,
// verifying labels against the functional reference.
func RunCC(v CCVariant, prm CCParams) (Result, error) {
	cfg := system.Scaled(prm.Tiles, prm.CacheScale)
	if v == CCBaseline {
		cfg.NoTako = true
	}
	s := system.New(cfg)

	g := workloads.Symmetrize(workloads.GenCommunity(prm.V, prm.E, prm.Communities, prm.PIntra, prm.Seed))
	gm := g.Layout(s.Space, s.H.DRAM.Store())
	labels := s.Alloc("cc.labels", uint64(prm.V)*8)
	for i := 0; i < prm.V; i++ {
		s.H.DRAM.Store().WriteU64(labels.Word(uint64(i)), uint64(i))
	}
	want := ccReference(g, prm.Rounds)

	threads := prm.Threads
	if threads > prm.Tiles {
		threads = prm.Tiles
	}
	sliceOf := func(t int) (lo, hi int) {
		return t * prm.V / threads, (t + 1) * prm.V / threads
	}
	var runErr error

	// edgeLoop scatters each vertex's label along its (symmetrized)
	// out-edges — pure scatter, the access pattern PHI targets.
	edgeLoop := func(p *sim.Proc, c *cpu.Core, t int, push func(p *sim.Proc, c *cpu.Core, dst int, label uint64)) {
		lo, hi := sliceOf(t)
		for src := lo; src < hi; src++ {
			off := c.Load(p, gm.OffsetAddr(src))
			end := c.Load(p, gm.OffsetAddr(src+1))
			if off == end {
				continue
			}
			srcLabel := c.Load(p, labels.Word(uint64(src)))
			c.Compute(p, 1)
			for e := off; e < end; e++ {
				dst := int(c.Load(p, gm.NeighborAddr(e)))
				c.Compute(p, 1)
				push(p, c, dst, srcLabel)
			}
		}
	}

	switch v {
	case CCBaseline:
		// next[] accumulates minima with local atomics.
		next := s.Alloc("cc.next", uint64(prm.V)*8)
		bar := s.Barrier(threads)
		for t := 0; t < threads; t++ {
			t := t
			s.Go(t, "cc-base", func(p *sim.Proc, c *cpu.Core) {
				for r := 0; r < prm.Rounds; r++ {
					if t == 0 && r == 0 {
						// next starts as a copy of cur.
						for i := 0; i < prm.V; i++ {
							s.H.DRAM.Store().WriteU64(next.Word(uint64(i)), uint64(i))
						}
					}
					bar.Arrive(p)
					edgeLoop(p, c, t, func(p *sim.Proc, c *cpu.Core, dst int, label uint64) {
						c.AtomicRMOLocal(p, next.Word(uint64(dst)), hier.RMOMin, label)
					})
					bar.Arrive(p)
					// Vertex phase: cur = next (and next stays for the
					// following round: minima only tighten).
					lo, hi := sliceOf(t)
					for vtx := lo; vtx < hi; vtx++ {
						nv := c.Load(p, next.Word(uint64(vtx)))
						c.Store(p, labels.Word(uint64(vtx)), nv)
					}
					bar.Arrive(p)
				}
			})
		}

	case CCTako:
		var morph *core.Morph
		spec := core.MorphSpec{
			Name: "cc-min",
			// onMiss: set the identity for MIN (all ones).
			OnMiss: &core.Callback{
				Instrs: 3, CritPath: 1,
				Fn: func(ctx *engine.Ctx) {
					for i := 0; i < mem.WordsPerLine; i++ {
						ctx.Line.SetWord(i, ccIdentity)
					}
				},
			},
			// onWriteback: apply buffered minima in place.
			OnWriteback: &core.Callback{
				Instrs: 18, CritPath: 7,
				Fn: func(ctx *engine.Ctx) {
					view := ctx.View().(*ccView)
					firstVtx := int((ctx.Addr - view.base) / 8)
					for i := 0; i < mem.WordsPerLine; i++ {
						if val := ctx.Line.Word(i); val != ccIdentity {
							ctx.RMWWord(view.next.Word(uint64(firstVtx+i)), hier.RMOMin, val)
						}
					}
				},
			},
			NewView: func(tile int) interface{} { return &ccView{} },
		}
		next := s.Alloc("cc.next", uint64(prm.V)*8)
		bar := s.Barrier(threads)
		for t := 0; t < threads; t++ {
			t := t
			s.Go(t, "cc-tako", func(p *sim.Proc, c *cpu.Core) {
				if t == 0 {
					for i := 0; i < prm.V; i++ {
						s.H.DRAM.Store().WriteU64(next.Word(uint64(i)), uint64(i))
					}
					m, err := s.Tako.RegisterPhantom(p, spec, core.Shared, uint64(prm.V)*8, 0)
					if err != nil {
						runErr = err
					} else {
						for i := 0; i < s.H.Tiles(); i++ {
							vw := m.View(i).(*ccView)
							vw.base = m.Region.Base
							vw.next = next
						}
						morph = m
					}
				}
				for r := 0; r < prm.Rounds; r++ {
					// The round-opening barrier doubles as the publish
					// edge for morph/runErr.
					bar.Arrive(p)
					if runErr != nil {
						return
					}
					edgeLoop(p, c, t, func(p *sim.Proc, c *cpu.Core, dst int, label uint64) {
						c.AtomicRMO(p, morph.Region.Word(uint64(dst)), hier.RMOMin, label)
					})
					c.DrainRMOs(p)
					bar.Arrive(p)
					if t == 0 {
						s.Tako.FlushData(p, morph)
					}
					bar.Arrive(p)
					lo, hi := sliceOf(t)
					for vtx := lo; vtx < hi; vtx++ {
						nv := c.Load(p, next.Word(uint64(vtx)))
						c.Store(p, labels.Word(uint64(vtx)), nv)
					}
					bar.Arrive(p)
				}
			})
		}

	default:
		return Result{}, fmt.Errorf("unknown CC variant %q", v)
	}

	cycles := s.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	for i := 0; i < prm.V; i++ {
		if got := s.H.DebugReadWord(labels.Word(uint64(i))); got != want[i] {
			return Result{}, fmt.Errorf("%s: label[%d] = %d, want %d", v, i, got, want[i])
		}
	}
	return collect(s, "components", string(v), cycles), nil
}

type ccView struct {
	base mem.Addr
	next mem.Region
}
