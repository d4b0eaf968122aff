package oracle

import (
	"fmt"
	"strings"

	"tako/internal/sched"
)

// This file implements the deterministic interleaving explorer: small
// multi-tile scenarios run under systematically permuted event orderings
// via the kernel's Chooser hook (sim.Kernel.SetChooser).
//
// Same-cycle events model concurrent hardware whose relative order the
// architecture leaves undefined, so every schedule the explorer tries is
// a legal timing — and each one must still satisfy the reference memory
// model and every hierarchy invariant. The scenarios are seeded with the
// access patterns of the six coherence races fixed during development
// (see docs/coherence.md): the explorer keeps them fixed by continually
// re-running those patterns under adversarial schedules.

// schedChooser drives one exploration run: it replays a fixed prefix of
// choices, takes the kernel default (0) after the prefix ends, and
// records the arity of every choice point so the driver can expand the
// schedule tree. It stays dormant (always 0, nothing recorded) until
// Arm() fires at the end of Morph setup.
type schedChooser struct {
	prefix []int
	taken  []int
	arity  []int
	armed  bool
}

func (c *schedChooser) Arm() { c.armed = true }

func (c *schedChooser) Choose(n int) int {
	if !c.armed {
		return 0
	}
	i := len(c.taken)
	pick := 0
	if i < len(c.prefix) && c.prefix[i] < n {
		// (An out-of-range replay value means this schedule reshaped the
		// event pattern before the divergence point; fall back to 0.)
		pick = c.prefix[i]
	}
	c.taken = append(c.taken, pick)
	c.arity = append(c.arity, n)
	return pick
}

// byteChooser resolves each choice point from a fuzz-provided byte
// stream (modulo the arity), defaulting to 0 when the stream runs out.
// FuzzExploreSchedule uses it to let the fuzzer drive raw schedules.
type byteChooser struct {
	data  []byte
	i     int
	armed bool
}

func (c *byteChooser) Arm() { c.armed = true }

func (c *byteChooser) Choose(n int) int {
	if !c.armed || c.i >= len(c.data) {
		return 0
	}
	pick := int(c.data[c.i]) % n
	c.i++
	return pick
}

// scenario is one explorer workload: a scripted two-tile operation mix
// shaped to revisit a historical race's access pattern.
type scenario struct {
	name  string
	race  string // the historical race this pattern regression-tests
	tiles int
	scale int // CacheScale: larger = smaller caches = more evictions
	ops   []byte
	// realMorph enables the harness's identity PRIVATE Morph over
	// realA, opening the fill-in-flight window (TraceConfig.RealMorph).
	realMorph bool
}

// sop encodes one scripted operation in the 6-byte trace format
// (tracegen.go buildOps); op i runs on tile i % tiles.
func sop(k opKind, region, line, word int, vb byte) []byte {
	return []byte{byte(k), byte(region), byte(line & 0xff), byte(line >> 8), byte(word), vb}
}

func script(ops ...[]byte) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o...)
	}
	return out
}

// Scenarios returns the explorer's workload set. Each is small enough
// that one run takes milliseconds, so hundreds of schedules fit in an
// interactive budget.
func Scenarios() []scenario {
	var ss []scenario

	// 1. Non-temporal supersede vs. in-flight sharers: NT stores to a
	// line two other tiles keep re-fetching. Guards the fix where
	// StoreLineNT invalidated directory sharers before taking the
	// home-line lock. Three tiles matter: the failing interleaving needs
	// the NT store parked on the home lock (already past its too-early
	// invalidate) while a second fetch is parked behind the same lock —
	// the unlock then wakes both in the same cycle, and the schedule that
	// runs the fetch first re-registers a sharer the supersede never
	// sees. With only two tiles each core's next op issues strictly after
	// its previous one retires, so that wake tie never forms.
	{
		var ops [][]byte
		for i := 0; i < 12; i++ {
			ops = append(ops,
				sop(opStoreLineNT, rRealB, 0, 0, byte(10+i)), // tile 0
				sop(opLoad, rRealB, 0, i%8, 1),               // tile 1
				sop(opLoad, rRealB, 0, (i+3)%8, 1),           // tile 2
				// Tile 0 yield: an L1-hit load parks the tile-0 proc for a
				// cycle, releasing the event loop so fetch waiters can
				// claim the home lock between consecutive NT stores (a
				// back-to-back NT pair relocks synchronously and would
				// starve them, closing the race window the scenario aims
				// at).
				sop(opLoad, rRealA, int(1+i), 0, 1), // tile 0
				sop(opLoad, rRealB, 0, (i+5)%8, 1),  // tile 1
				sop(opLoad, rRealB, 0, (i+6)%8, 1),  // tile 2
			)
		}
		ops = append(ops,
			sop(opLoadLine, rRealB, 0, 0, 1),
			sop(opLoadLine, rRealB, 0, 0, 1),
			sop(opLoadLine, rRealB, 0, 0, 1))
		ss = append(ss, scenario{
			name:  "nt-supersede",
			race:  "StoreLineNT invalidated sharers before locking the home line",
			tiles: 3, scale: 32, ops: script(ops...),
		})
	}

	// 2. Shared-phantom eviction vs. re-store: both tiles store across
	// more SHARED phantom lines than the shrunken L3 holds, with the
	// strides phased so every line is stored twice at widely-separated
	// times. The second store's fetch re-materializes a line whose
	// eviction callback is still in flight; if the eviction failed to
	// lock the home line first, the store lands between the eviction
	// snapshot and the writeback callback, and the callback persists the
	// older data over it (the onWriteback shadow check sees data from
	// one store generation behind).
	{
		// 20 lines at stride 4 co-map to one L3 set (16 ways at this
		// scale), so the constantly re-stored hot set evicts itself —
		// plain streaming would only displace its own distant-priority
		// (trrîp) lines and never victimize the reused hot lines. The
		// round-robin next store target tracks the LRU victim, keeping a
		// fetch of the just-evicted line in flight at most evictions.
		var ops [][]byte
		for i := 0; i < 80; i++ {
			ops = append(ops,
				sop(opStoreLine, rPhantomS, 4*(i%20), 0, byte(1+i)),       // tile 0
				sop(opStoreLine, rPhantomS, 4*((i+7)%20), 0, byte(128+i)), // tile 1
			)
		}
		ss = append(ss, scenario{
			name:  "shared-evict-lock",
			race:  "an L3 Morph eviction (morphEvict) extracted the victim before locking its home line",
			tiles: 2, scale: 256, ops: script(ops...),
		})
	}

	// 3. Flush vs. engine-resident dirty lines: stores to the journaling
	// SHARED phantom trigger writeback callbacks that engine-store into
	// the journal (dirty lines living only in the engine L1d, around the
	// L2), then both tiles flush the journal while one keeps loading it.
	// Guards the fix where flushPrivate dropped dirty above-L2 lines.
	{
		var ops [][]byte
		for i := 0; i < 12; i++ {
			ops = append(ops,
				sop(opStoreLine, rPhantomS, (i*11)%96, 0, byte(1+i)), // tile 0
				sop(opLoadLine, rJournal, (i*5)%128, 0, 1),           // tile 1
			)
		}
		ops = append(ops,
			sop(opFlush, rPhantomS, 0, 0, 1), // tile 0: force writebacks/journaling
			sop(opLoadLine, rJournal, 3, 0, 1),
			sop(opFlush, rJournal, 0, 0, 1), // tile 0: flush the journal itself
			sop(opFlush, rJournal, 0, 0, 1), // tile 1: and concurrently from tile 1
			sop(opLoadLine, rJournal, 7, 0, 1),
			sop(opLoadLine, rJournal, 11, 0, 1),
		)
		ss = append(ss, scenario{
			name:  "flush-engine-dirty",
			race:  "flushPrivate dropped dirty lines cached only above the L2",
			tiles: 2, scale: 32, ops: script(ops...),
		})
	}

	// 4. L2-hit write vs. concurrent revocation. Writes only take the
	// L2-hit path when they miss the L1 but hit the L2, so tile 0
	// round-robins stores over 24 lines: more than the scaled L1 holds
	// (16 lines), fewer than the L2 (64 lines). Every store after the
	// first pass misses the thrashed L1 and hits the still-owned L2
	// copy, then sleeps on the data array — and tile 1, loading and
	// storing the same line in lockstep, can downgrade or invalidate
	// that copy inside the sleep. Guards the fix where such a write
	// committed without re-validating the hit.
	{
		// Phase sweep: both tiles run fixed latency chains, so the cycle
		// offset between tile 1's directory action and tile 0's
		// data-array sleep would otherwise be constant (and the chooser
		// can only permute same-cycle ties, not shift timing). Unequal
		// per-iteration counts of 1-cycle L1-hit scratch loads (i%2 on
		// tile 0 vs i%3 on tile 1) accumulate relative drift in 1-cycle
		// steps, so revocations sweep through every offset of the window.
		var t0, t1 [][]byte
		for i := 0; i < 72; i++ {
			l := i % 24
			t0 = append(t0, sop(opStore, rRealA, l, i%8, byte(1+i)))
			for j := 0; j < i%2; j++ {
				t0 = append(t0, sop(opLoad, rRealB, 30, 0, 1))
			}
			for j := 0; j < i%3; j++ {
				t1 = append(t1, sop(opLoad, rRealB, 31, 0, 1))
			}
			if i%3 == 2 {
				t1 = append(t1, sop(opStore, rRealA, l, (i+1)%8, byte(128+i)))
			} else {
				t1 = append(t1, sop(opLoad, rRealA, l, i%8, 1))
			}
		}
		// Zip to the positional tile assignment (op i runs on tile i%2),
		// tail-padding the shorter stream with scratch loads.
		var ops [][]byte
		for i := 0; i < len(t0) || i < len(t1); i++ {
			if i < len(t0) {
				ops = append(ops, t0[i])
			} else {
				ops = append(ops, sop(opLoad, rRealB, 30, 0, 1))
			}
			if i < len(t1) {
				ops = append(ops, t1[i])
			} else {
				ops = append(ops, sop(opLoad, rRealB, 31, 0, 1))
			}
		}
		ops = append(ops, sop(opDrain, 0, 0, 0, 1), sop(opDrain, 0, 0, 0, 1))
		ss = append(ss, scenario{
			name:  "l2-hit-write-race",
			race:  "an L2-hit write lost ownership across its data-array sleep",
			tiles: 2, scale: 32, ops: script(ops...), realMorph: true,
		})
	}

	// 5. Sibling migration: writeback callbacks engine-store journal
	// lines into the engine L1d of the phantom line's home tile, so a
	// core load of that journal slot on the same tile migrates the dirty
	// line between sibling L1s via the snoop path — while the other
	// tile's load of the same slot downgrades it through the directory.
	// Guards the fix where a sibling-extracted dirty line was held in a
	// buffer across a sleep instead of being re-inserted atomically.
	//
	// Each round: both tiles churn phantomS, then both flush it
	// concurrently (keeping them time-aligned while the writeback
	// callbacks journal every dirty line), then both sweep the whole
	// journal range in lockstep. A dirty slot's first core touch on its
	// home tile is a sibling snoop; the other tile touching the same
	// slot at the same moment is the downgrade. The snoop window is one
	// cycle, so unequal pad counts (j%2 vs j%3 scratch loads) drift the
	// tiles' relative phase through every offset across the sweep.
	{
		var t0, t1 [][]byte
		for r := 0; r < 2; r++ {
			for i := 0; i < 24; i++ {
				t0 = append(t0, sop(opStoreLine, rPhantomS, (r*24+i)%96, 0, byte(1+r*24+i)))
				t1 = append(t1, sop(opStoreLine, rPhantomS, (r*24+i+12)%96, 0, byte(128+r*24+i)))
			}
			t0 = append(t0, sop(opFlush, rPhantomS, 0, 0, 1))
			t1 = append(t1, sop(opFlush, rPhantomS, 0, 0, 1))
			for j := 0; j < 128; j++ {
				t0 = append(t0, sop(opLoadLine, rJournal, j, 0, 1))
				for k := 0; k < j%5; k++ {
					t0 = append(t0, sop(opLoad, rRealB, 40, 0, 1))
				}
				t1 = append(t1, sop(opLoadLine, rJournal, j, 0, 1))
				for k := 0; k < j%7; k++ {
					t1 = append(t1, sop(opLoad, rRealB, 41, 0, 1))
				}
			}
		}
		var ops [][]byte
		for i := 0; i < len(t0) || i < len(t1); i++ {
			if i < len(t0) {
				ops = append(ops, t0[i])
			} else {
				ops = append(ops, sop(opLoad, rRealB, 40, 0, 1))
			}
			if i < len(t1) {
				ops = append(ops, t1[i])
			} else {
				ops = append(ops, sop(opLoad, rRealB, 41, 0, 1))
			}
		}
		ss = append(ss, scenario{
			name:  "sibling-migration",
			race:  "sibling snoop held an extracted dirty line across a sleep",
			tiles: 2, scale: 64, ops: script(ops...),
		})
	}

	// 6. Miss fill vs. mid-flight revocation: one tile load-misses on
	// lines the other is superseding with NT stores and remote adds, so
	// fills can arrive after the directory revoked the requester. Guards
	// the dirStillGrants fix: a fill whose grant was revoked mid-install
	// must be dropped and retried, not kept.
	{
		var ops [][]byte
		for i := 0; i < 10; i++ {
			l := i % 4
			ops = append(ops,
				sop(opLoadLine, rRealA, l, 0, 1),                // tile 0
				sop(opStoreLineNT, rRealA, l, 0, byte(1+i)),     // tile 1
				sop(opLoad, rRealA, l, i%8, 1),                  // tile 0
				sop(opRemoteAdd, rRealA, l, (i+1)%8, byte(7+i)), // tile 1
			)
		}
		ops = append(ops, sop(opDrain, 0, 0, 0, 1), sop(opDrain, 0, 0, 0, 1))
		ss = append(ss, scenario{
			name:  "miss-vs-revoke",
			race:  "a miss fill was kept after the directory revoked it mid-install",
			tiles: 2, scale: 32, ops: script(ops...), realMorph: true,
		})
	}

	return ss
}

// ExploreConfig bounds an exploration.
type ExploreConfig struct {
	// Scenario restricts the run to scenarios whose name contains this
	// substring; empty runs all of them.
	Scenario string
	// MaxRuns caps schedules tried per scenario (including the default
	// schedule). 0 means DefaultExploreConfig's value.
	MaxRuns int
	// Horizon is how many post-setup choice points may branch; choices
	// beyond it always take the default. 0 means the default.
	Horizon int
	// MaxBranch caps the alternatives tried at one choice point. 0
	// means the default.
	MaxBranch int
	// CheckEvery is the oracle invariant period in hierarchy events.
	CheckEvery int
	// Workers is the number of schedules evaluated concurrently. Every
	// schedule is an independent simulation, so the explorer evaluates
	// each breadth-first generation as a parallel batch and then replays
	// the sequential bookkeeping over the memoized results — the run
	// count, expansion order, and findings are byte-identical to
	// Workers ≤ 1 (which evaluates inline, exactly the sequential
	// explorer). 0/1 means sequential.
	Workers int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// DefaultExploreConfig bounds a full sweep to a few seconds (each
// scenario run is ~1-2ms, so the budget is schedules, not wall clock).
func DefaultExploreConfig() ExploreConfig {
	return ExploreConfig{MaxRuns: 250, Horizon: 96, MaxBranch: 3, CheckEvery: 32}
}

// Finding is one schedule that broke the model.
type Finding struct {
	Scenario string
	Schedule []int // choice prefix to replay the failure
	Err      string
}

// ExploreResult summarizes an exploration sweep.
type ExploreResult struct {
	Scenarios []string
	Runs      int
	// ChoicePoints is the largest number of armed choice points seen in
	// one run (a feel for how much scheduling freedom the sweep had).
	ChoicePoints int
	Findings     []Finding
}

// Explore runs each selected scenario under its default schedule and
// then under systematically perturbed ones: breadth-first over choice
// prefixes, flipping one choice at a time within the horizon, expanding
// passing schedules until the per-scenario run budget is spent. Any
// schedule that panics, violates an invariant, or disagrees with the
// reference model is reported as a Finding.
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	def := DefaultExploreConfig()
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = def.MaxRuns
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = def.Horizon
	}
	if cfg.MaxBranch <= 0 {
		cfg.MaxBranch = def.MaxBranch
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = def.CheckEvery
	}
	res := &ExploreResult{}
	for _, sc := range Scenarios() {
		if cfg.Scenario != "" && !strings.Contains(sc.name, cfg.Scenario) {
			continue
		}
		res.Scenarios = append(res.Scenarios, sc.name)
		if cfg.Logf != nil {
			cfg.Logf("explore %s: %s", sc.name, sc.race)
		}
		runs, cps, findings := exploreScenario(sc, cfg)
		res.Runs += runs
		if cps > res.ChoicePoints {
			res.ChoicePoints = cps
		}
		res.Findings = append(res.Findings, findings...)
		if cfg.Logf != nil {
			cfg.Logf("explore %s: %d schedules, %d findings", sc.name, runs, len(findings))
		}
	}
	if len(res.Scenarios) == 0 {
		return nil, fmt.Errorf("oracle: no scenario matches %q", cfg.Scenario)
	}
	return res, nil
}

// exploreScenario searches one scenario's schedule tree breadth-first.
// Each frontier entry is a choice prefix; prefixes are unique by
// construction (every explicit prefix ends in a nonzero choice at a
// position its parent had not branched), so no dedup set is needed.
//
// A schedule's outcome is a pure function of its prefix, so with
// cfg.Workers > 1 each breadth-first generation — the runnable slice of
// the current frontier — is evaluated as one parallel batch, and the
// loop below then consumes the memoized results in the original
// sequential order. Only runSchedule moves off-thread; every counter,
// expansion, and finding is appended by this goroutine exactly as the
// sequential explorer would, so the full ExploreResult is byte-identical
// at any worker count (TestExploreParallelMatchesSequential pins this).
func exploreScenario(sc scenario, cfg ExploreConfig) (runs, maxCPs int, findings []Finding) {
	frontier := [][]int{nil}
	var batch []*schedChooser
	var batchFail []string
	batched := 0 // results of the current generation already consumed
	for len(frontier) > 0 && runs < cfg.MaxRuns {
		if batched == len(batch) {
			// Evaluate the next generation: every frontier entry the run
			// budget still admits.
			n := len(frontier)
			if rem := cfg.MaxRuns - runs; n > rem {
				n = rem
			}
			batch = make([]*schedChooser, n)
			batchFail = make([]string, n)
			batched = 0
			// sched.Map reads 0 workers as GOMAXPROCS, where the explorer
			// reads sequential; its error is nil, as no task fails.
			_ = sched.Map(max(cfg.Workers, 1), n, func(i int) error {
				ch := &schedChooser{prefix: frontier[i]}
				batch[i] = ch
				batchFail[i] = runSchedule(sc, cfg, ch)
				return nil
			})
		}
		prefix := frontier[0]
		frontier = frontier[1:]
		ch, failure := batch[batched], batchFail[batched]
		batched++
		runs++
		if n := len(ch.arity); n > maxCPs {
			maxCPs = n
		}
		if failure != "" {
			findings = append(findings, Finding{
				Scenario: sc.name,
				Schedule: append([]int(nil), ch.taken...),
				Err:      failure,
			})
			if cfg.Logf != nil {
				cfg.Logf("explore %s: FAILED schedule %v: %s", sc.name, trimSchedule(ch.taken), failure)
			}
			continue // don't expand a failing schedule
		}
		// Expand: branch each not-yet-branched choice point within the
		// horizon. The budget check keeps the frontier from outgrowing
		// what we can ever run.
		lim := min(len(ch.arity), cfg.Horizon)
		for i := len(prefix); i < lim && runs+len(frontier) < cfg.MaxRuns; i++ {
			alts := ch.arity[i] - 1
			if alts > cfg.MaxBranch {
				alts = cfg.MaxBranch
			}
			for c := 1; c <= alts && runs+len(frontier) < cfg.MaxRuns; c++ {
				np := append(append([]int(nil), ch.taken[:i]...), c)
				frontier = append(frontier, np)
			}
		}
	}
	return runs, maxCPs, findings
}

// runSchedule executes one scenario under one schedule and returns a
// non-empty description if the run failed.
func runSchedule(sc scenario, cfg ExploreConfig, ch *schedChooser) string {
	tc := TraceConfig{
		Tiles:         sc.tiles,
		CacheScale:    sc.scale,
		CheckEvery:    cfg.CheckEvery,
		Script:        sc.ops,
		Chooser:       ch,
		RecoverPanics: true,
		RealMorph:     sc.realMorph,
	}
	res, err := RunTrace(tc)
	if err != nil {
		return err.Error()
	}
	if err := res.Oracle.Err(); err != nil {
		return err.Error()
	}
	return ""
}

// trimSchedule drops the trailing default choices from a recorded
// schedule for readable logs (replaying a short prefix reproduces it).
func trimSchedule(s []int) []int {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return s[:n]
}
