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

// NVMVariant selects an implementation of the direct-access NVM
// transaction study (§8.3, Figs 19-20): append-only transactions on a
// filesystem-style log in persistent memory with battery-backed caches
// (Intel eADR-style: data is durable once written back to NVM).
type NVMVariant string

// NVM variants (Fig 19's lines).
const (
	NVMBaseline NVMVariant = "baseline" // redo journaling: journal + commit + apply
	NVMTako     NVMVariant = "tako"     // phantom staging: journal only if evicted pre-commit
	NVMIdeal    NVMVariant = "ideal"    // täkō with the idealized engine
)

// AllNVMVariants lists Fig 19's lines in order.
var AllNVMVariants = []NVMVariant{NVMBaseline, NVMTako, NVMIdeal}

// NVMParams sizes the study (§8.3: transaction sizes 1 KB – 128 KB; the
// L2 is 128 KB, so the largest transactions no longer fit and täkō falls
// back to journaling).
type NVMParams struct {
	TxnBytes     int
	Transactions int
	Tiles        int
	Seed         int64
	Engine       engine.Config
}

// DefaultNVMParams returns the study configuration for one transaction
// size.
func DefaultNVMParams(txnBytes int) NVMParams {
	return NVMParams{
		TxnBytes:     txnBytes,
		Transactions: 24,
		Tiles:        16,
		Seed:         3,
		Engine:       engine.DefaultConfig(),
	}
}

var nvmDebug = false

// TxnSizes are the paper's swept transaction sizes (Fig 19).
var TxnSizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10}

// nvmView is the per-engine state of the transaction Morph.
type nvmView struct {
	committed      bool
	dataBase       mem.Addr
	phantomBase    mem.Addr
	journalCur     uint64
	evictedPre     uint64 // lines journaled before commit (current txn)
	journaledTotal uint64 // cumulative journaled lines
}

// RunNVM executes one variant: `Transactions` append-only transactions
// of TxnBytes each, verifying that the NVM data region ends up with the
// expected contents and that every committed byte was persisted. Runs
// are memoized in the run window, if one is armed (system.Memo).
func RunNVM(v NVMVariant, prm NVMParams) (Result, error) {
	return cachedRun("nvm", string(v), prm, func() (Result, error) {
		return runNVM(v, prm)
	})
}

func runNVM(v NVMVariant, prm NVMParams) (Result, error) {
	cfg := system.Default(prm.Tiles)
	cfg.Engine = prm.Engine
	if v == NVMBaseline {
		cfg.NoTako = true
	}
	if v == NVMIdeal {
		cfg.Engine = engine.IdealConfig()
	}
	s := system.New(cfg)

	words := prm.TxnBytes / 8
	totalWords := words * prm.Transactions
	lines := (words + mem.WordsPerLine - 1) / mem.WordsPerLine
	data := s.Alloc("nvm.data", uint64(totalWords)*8)
	// Journal: per-record tag words followed by line-aligned payload
	// slots (reused across transactions for täkō; linear for baseline).
	journal := s.Alloc("nvm.journal", uint64(totalWords)*8+uint64(lines)*8+8192)
	tagBase := journal.Base
	lineBase := (journal.Base + mem.Addr(lines*8) + 63) &^ 63
	s.H.DRAM.MarkNVM(data)
	s.H.DRAM.MarkNVM(journal)

	// Expected contents: word i of txn t = payload(t, i).
	payload := func(t, i int) uint64 { return uint64(t)<<32 | uint64(i) | 1<<63 }

	var runErr error
	var view *nvmView

	switch v {
	case NVMBaseline:
		// Redo journaling: write every word to the journal, persist a
		// commit record, then apply every word to the data region —
		// twice the writes plus journaling instructions (§8.3).
		s.Go(0, "nvm-journal", func(p *sim.Proc, c *cpu.Core) {
			jcur := uint64(0)
			for t := 0; t < prm.Transactions; t++ {
				base := t * words
				// Journal phase: copy every word into the redo log
				// with per-word bookkeeping (address tag/checksum)
				// and a record header per line.
				for i := 0; i < words; i++ {
					if i%mem.WordsPerLine == 0 {
						c.Compute(p, 4)
					}
					c.Compute(p, 1)
					c.Store(p, journal.Word(jcur), payload(t, i))
					jcur++
				}
				// Commit record must be durable before applying.
				c.Store(p, journal.Word(jcur), uint64(t)|1<<62)
				jcur++
				c.Compute(p, 2)
				p.Sleep(30) // persist fence
				// Apply phase: write the data in place.
				for i := 0; i < words; i++ {
					c.Store(p, data.Word(uint64(base+i)), payload(t, i))
				}
			}
		})

	case NVMTako, NVMIdeal:
		spec := core.MorphSpec{
			Name: "nvm-txn",
			// onMiss: initialize the staging line (INVALID marker).
			OnMiss: &core.Callback{Instrs: 2, CritPath: 1, Fn: func(ctx *engine.Ctx) {}},
			// onWriteback: if the transaction committed, write the
			// line directly to NVM data; otherwise journal it
			// (Table 6).
			OnWriteback: &core.Callback{
				Instrs: 12, CritPath: 5,
				Fn: func(ctx *engine.Ctx) {
					vw := ctx.View().(*nvmView)
					off := uint64(ctx.Addr - vw.phantomBase)
					if vw.committed {
						line := *ctx.Line
						ctx.StoreLine(vw.dataBase+mem.Addr(off), &line)
						return
					}
					// Evicted before commit: journal the line (tag +
					// payload), persisting the payload.
					rec := vw.journalCur
					vw.journalCur = rec + 1
					line := *ctx.Line
					if nvmDebug {
						fmt.Printf("journal rec=%d off=%d w0=%x committed=%v\n", rec, off, line.Word(0), vw.committed)
					}
					ctx.StoreWord(tagBase+mem.Addr(rec*8), off)
					ctx.StoreLine(lineBase+mem.Addr(rec*64), &line)
					vw.evictedPre++
					vw.journaledTotal++
				},
			},
			NewView: func(tile int) interface{} { return &nvmView{} },
		}
		s.Go(0, "nvm-tako", func(p *sim.Proc, c *cpu.Core) {
			// One Morph instance per in-flight transaction; we reuse
			// a single instance serially (§8.3 allows many).
			m, err := s.Tako.RegisterPhantom(p, spec, core.Private, uint64(words)*8, 0)
			if err != nil {
				runErr = err
				return
			}
			view = m.View(0).(*nvmView)
			view.phantomBase = m.Region.Base
			for t := 0; t < prm.Transactions; t++ {
				view.dataBase = data.Word(uint64(t * words))
				view.committed = false
				// Write the transaction into the phantom staging
				// range (cache-resident; no journaling).
				for i := 0; i < words; i++ {
					c.Store(p, m.Region.Word(uint64(i)), payload(t, i))
				}
				// Commit: flush the phantom data; onWriteback pushes
				// it straight to NVM (the cache was the journal).
				view.committed = true
				c.Compute(p, 2)
				s.Tako.FlushData(p, m)
				// If lines were evicted pre-commit, their journaled
				// copies must be applied (§8.3's fallback).
				if view.evictedPre > 0 {
					for rec := uint64(0); rec < view.journalCur; rec++ {
						off := c.Load(p, tagBase+mem.Addr(rec*8))
						ln := c.LoadLine(p, lineBase+mem.Addr(rec*64))
						if nvmDebug {
							fmt.Printf("replay rec=%d off=%d w0=%x\n", rec, off, ln.Word(0))
						}
						c.Compute(p, 2)
						c.StoreLine(p, view.dataBase+mem.Addr(off), &ln)
					}
					view.journalCur = 0
					view.evictedPre = 0
				}
			}
			s.Tako.Unregister(p, m)
		})

	default:
		return Result{}, fmt.Errorf("unknown NVM variant %q", v)
	}

	cycles := s.Run()
	if runErr != nil {
		return Result{}, runErr
	}
	// Verify: every committed word has its payload in the data region.
	for t := 0; t < prm.Transactions; t++ {
		for i := 0; i < words; i += 97 {
			a := data.Word(uint64(t*words + i))
			if got := s.H.DebugReadWord(a); got != payload(t, i) {
				return Result{}, fmt.Errorf("%s txn %d word %d = %x, want %x",
					v, t, i, got, payload(t, i))
			}
		}
	}
	r := collect(s, "nvm", string(v), cycles)
	r.Extra["txn_bytes"] = float64(prm.TxnBytes)
	r.Extra["bytes_written"] = float64(prm.TxnBytes * prm.Transactions)
	r.Extra["instr_per_8B_core"] = float64(r.CoreInstrs) / float64(totalWords)
	r.Extra["instr_per_8B_total"] = float64(r.CoreInstrs+r.EngineInstrs) / float64(totalWords)
	if view != nil {
		r.Extra["journaled_lines"] = float64(view.journaledTotal)
	}
	return r, nil
}

// RunNVMCrash is failure injection for the täkō transaction Morph: it
// runs the täkō variant and "crashes" the machine at the given cycle
// (stopping the simulation), then checks the durability invariant of
// §8.3 with eADR semantics (caches are in the persistence domain):
// every transaction whose commit flush completed before the crash must
// be fully present in the persistence domain. It returns how many
// transactions had committed.
func RunNVMCrash(prm NVMParams, crashAt sim.Cycle) (committed int, err error) {
	cfg := system.Default(prm.Tiles)
	cfg.Engine = prm.Engine
	s := system.New(cfg)

	words := prm.TxnBytes / 8
	totalWords := words * prm.Transactions
	lines := (words + mem.WordsPerLine - 1) / mem.WordsPerLine
	data := s.Alloc("nvm.data", uint64(totalWords)*8)
	journal := s.Alloc("nvm.journal", uint64(totalWords)*8+uint64(lines)*8+8192)
	tagBase := journal.Base
	lineBase := (journal.Base + mem.Addr(lines*8) + 63) &^ 63
	s.H.DRAM.MarkNVM(data)
	s.H.DRAM.MarkNVM(journal)
	payload := func(t, i int) uint64 { return uint64(t)<<32 | uint64(i) | 1<<63 }

	committedCount := 0
	spec := core.MorphSpec{
		Name:   "nvm-txn-crash",
		OnMiss: &core.Callback{Instrs: 2, CritPath: 1, Fn: func(ctx *engine.Ctx) {}},
		OnWriteback: &core.Callback{
			Instrs: 12, CritPath: 5,
			Fn: func(ctx *engine.Ctx) {
				vw := ctx.View().(*nvmView)
				off := uint64(ctx.Addr - vw.phantomBase)
				line := *ctx.Line
				if vw.committed {
					ctx.PersistLine(vw.dataBase+mem.Addr(off), &line)
					return
				}
				rec := vw.journalCur
				vw.journalCur = rec + 1
				ctx.StoreWord(tagBase+mem.Addr(rec*8), off)
				ctx.PersistLine(lineBase+mem.Addr(rec*64), &line)
				vw.evictedPre++
			},
		},
		NewView: func(tile int) interface{} { return &nvmView{} },
	}
	s.Go(0, "nvm-crash", func(p *sim.Proc, c *cpu.Core) {
		m, rerr := s.Tako.RegisterPhantom(p, spec, core.Private, uint64(words)*8, 0)
		if rerr != nil {
			panic(rerr)
		}
		view := m.View(0).(*nvmView)
		view.phantomBase = m.Region.Base
		for t := 0; t < prm.Transactions; t++ {
			view.dataBase = data.Word(uint64(t * words))
			view.committed = false
			for i := 0; i < words; i++ {
				c.Store(p, m.Region.Word(uint64(i)), payload(t, i))
			}
			view.committed = true
			s.Tako.FlushData(p, m)
			if view.evictedPre > 0 {
				for rec := uint64(0); rec < view.journalCur; rec++ {
					off := c.Load(p, tagBase+mem.Addr(rec*8))
					ln := c.LoadLine(p, lineBase+mem.Addr(rec*64))
					c.StoreLine(p, view.dataBase+mem.Addr(off), &ln)
				}
				view.journalCur = 0
				view.evictedPre = 0
			}
			committedCount = t + 1 // commit point: flush (+replay) done
		}
	})

	// Crash: stop the machine at crashAt.
	s.RunUntil(crashAt)

	// Recovery check (eADR: caches are durable, so DebugReadWord sees
	// the persistence domain): committed transactions must be intact.
	for t := 0; t < committedCount; t++ {
		for i := 0; i < words; i += 61 {
			a := data.Word(uint64(t*words + i))
			if got := s.H.DebugReadWord(a); got != payload(t, i) {
				return committedCount, fmt.Errorf(
					"crash@%d: committed txn %d word %d = %x, want %x (atomicity violated)",
					crashAt, t, i, got, payload(t, i))
			}
		}
	}
	return committedCount, nil
}

// RunNVMSweep runs all variants across TxnSizes (Fig 19 + Fig 20). All
// (size, variant) points are independent simulations, so the whole
// sweep fans across the run window's workers; results assemble — and run
// records submit — in size-major, variant-minor order, matching the
// sequential sweep.
func RunNVMSweep(sizes []int, tiles int) (map[NVMVariant][]Result, error) {
	type point struct {
		size int
		v    NVMVariant
	}
	var points []point
	for _, size := range sizes {
		for _, v := range AllNVMVariants {
			points = append(points, point{size, v})
		}
	}
	results, err := RunResults(len(points), func(i int) (Result, error) {
		prm := DefaultNVMParams(points[i].size)
		prm.Tiles = tiles
		return RunNVM(points[i].v, prm)
	})
	if err != nil {
		return nil, err
	}
	out := map[NVMVariant][]Result{}
	for i, pt := range points {
		out[pt.v] = append(out[pt.v], results[i])
	}
	return out, nil
}
