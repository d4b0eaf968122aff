package morphs

import (
	"fmt"
	"math/rand"

	"tako/internal/core"
	"tako/internal/cpu"
	"tako/internal/engine"
	"tako/internal/mem"
	"tako/internal/sim"
	"tako/internal/system"
)

// SideChannelVariant selects the prime+probe study configuration (§8.4,
// Fig 21): an attacker on one core monitors shared-LLC sets to learn
// which AES-table lines a victim touches.
type SideChannelVariant string

// Side-channel variants (Fig 21a vs 21b).
const (
	SCBaseline SideChannelVariant = "baseline" // victim unprotected: attack succeeds
	SCTako     SideChannelVariant = "tako"     // onEviction Morph on the tables: attack detected
)

// AllSideChannelVariants lists Fig 21's two scenarios.
var AllSideChannelVariants = []SideChannelVariant{SCBaseline, SCTako}

// SideChannelParams sizes the study.
type SideChannelParams struct {
	Tiles      int
	TableLines int // AES table size in lines (4 KB = 64)
	HotLines   int // lines the victim's key selects
	Rounds     int // prime+probe rounds over the table's sets
	Seed       int64
}

// DefaultSideChannelParams returns the study configuration.
func DefaultSideChannelParams() SideChannelParams {
	return SideChannelParams{Tiles: 4, TableLines: 64, HotLines: 12, Rounds: 6, Seed: 11}
}

// SideChannelResult extends Result with attack-specific outcomes.
type SideChannelResult struct {
	Result
	// Detected reports whether the victim observed its data being
	// evicted (täkō's onEviction interrupt).
	Detected bool
	// DetectionCycle is when the first interrupt fired (0 if never).
	DetectionCycle sim.Cycle
	// TruePositives / FalsePositives: hot lines the attacker correctly
	// / incorrectly identified from probe timing.
	TruePositives, FalsePositives int
	// EvictionTrace[line] counts slow probes the attacker observed per
	// table line (Fig 21's trace).
	EvictionTrace []int
}

// RunSideChannel runs the prime+probe scenario and reports whether the
// attack succeeded and whether the victim detected it.
func RunSideChannel(v SideChannelVariant, prm SideChannelParams) (SideChannelResult, error) {
	cfg := system.Default(prm.Tiles)
	if v == SCBaseline {
		cfg.NoTako = true
	}
	s := system.New(cfg)
	hcfg := s.H.Config()

	table := s.Alloc("aes.tables", uint64(prm.TableLines)*mem.LineSize)
	// Collision stride: addresses equal modulo stride map to the same
	// L3 bank and set.
	numSets := hcfg.L3BankSize / (hcfg.L3Ways * mem.LineSize)
	stride := uint64(mem.LineSize * prm.Tiles * numSets)
	ways := hcfg.L3Ways
	attackBuf := s.Alloc("attack.buf", uint64(ways+3)*stride)

	// collide returns the k-th attacker address colliding with table
	// line ln in the shared cache.
	collide := func(ln, k int) mem.Addr {
		target := uint64(table.Base) + uint64(ln)*mem.LineSize
		base := uint64(attackBuf.Base)
		aligned := base - base%stride + stride // first stride boundary inside the buffer
		return mem.Addr(aligned + target%stride + uint64(k)*stride)
	}

	// The victim's secret: which table lines its key makes it touch.
	rng := rand.New(rand.NewSource(prm.Seed))
	hot := map[int]bool{}
	for len(hot) < prm.HotLines {
		hot[rng.Intn(prm.TableLines)] = true
	}

	var detected bool
	var detectionCycle sim.Cycle
	var interrupts int
	defended := false
	// The attacker signals completion through a flag in coherent
	// memory, which the victim polls with ordinary loads.
	doneFlag := s.Alloc("sc.done", mem.LineSize)

	if v == SCTako {
		// Victim registers an onEviction Morph over its real table
		// addresses at the SHARED cache (Table 7). Each eviction callback
		// interrupts the victim, which notes when it was first warned.
		s.E.Interrupt = func(tile, morphID int, addr mem.Addr) {
			interrupts++
			if !detected {
				detected = true
				detectionCycle = s.K.Now()
			}
		}
	}

	// Victim (tile 0): repeated "encryptions" touching its hot table
	// lines; defends (stops using the table) once interrupted.
	s.Go(0, "victim", func(p *sim.Proc, c *cpu.Core) {
		if v == SCTako {
			spec := core.MorphSpec{
				Name: "aes-guard",
				OnEviction: &core.Callback{
					Instrs: 3, CritPath: 2,
					Fn: func(ctx *engine.Ctx) { ctx.RaiseInterrupt() },
				},
			}
			if _, err := s.Tako.RegisterReal(p, spec, core.Shared, table, 0); err != nil {
				panic(err)
			}
		}
		for c.Load(p, doneFlag.Word(0)) == 0 {
			if detected && !defended {
				p.Sleep(200) // user-space interrupt delivery
				defended = true
			}
			if defended {
				// Defense: stop touching the secret tables (e.g.,
				// switch to a constant-time path [12, 102, 125]).
				c.Compute(p, 64)
				continue
			}
			// One encryption: 16 secret-dependent table reads.
			for i := 0; i < 16; i++ {
				ln := rng.Intn(prm.TableLines)
				if !hot[ln] {
					continue
				}
				c.Load(p, table.Base+mem.Addr(ln*mem.LineSize))
				c.Compute(p, 4)
			}
			c.Compute(p, 32)
		}
	})

	trace := make([]int, prm.TableLines)
	// Attacker (tile 1): prime+probe every table line's set.
	s.Go(1, "attacker", func(p *sim.Proc, c *cpu.Core) {
		for round := 0; round < prm.Rounds; round++ {
			for ln := 0; ln < prm.TableLines; ln++ {
				// Prime: fill the set with our own lines.
				for k := 0; k < ways; k++ {
					c.Load(p, collide(ln, k))
				}
				// Let the victim run.
				p.Sleep(2000)
				// Probe: time each of our lines; a miss means the
				// victim touched this set.
				slow := 0
				for k := 0; k < ways; k++ {
					t0 := p.Now()
					c.Load(p, collide(ln, k))
					if p.Now()-t0 > 60 {
						slow++
					}
				}
				if round > 0 && slow > 0 { // round 0 warms the buffer
					trace[ln] += slow
				}
			}
		}
		c.Store(p, doneFlag.Word(0), 1)
	})

	cycles := s.Run()

	// Attack analysis: lines with repeated slow probes are identified
	// as the victim's hot lines.
	tp, fp := 0, 0
	for ln, n := range trace {
		if n >= prm.Rounds-1 {
			if hot[ln] {
				tp++
			} else {
				fp++
			}
		}
	}
	r := collect(s, "sidechannel", string(v), cycles)
	r.Extra["interrupts"] = float64(interrupts)
	out := SideChannelResult{
		Result:         r,
		Detected:       detected,
		DetectionCycle: detectionCycle,
		TruePositives:  tp,
		FalsePositives: fp,
		EvictionTrace:  trace,
	}
	if v == SCBaseline && detected {
		return out, fmt.Errorf("baseline run cannot detect anything")
	}
	return out, nil
}
