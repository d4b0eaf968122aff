package main

import (
	"errors"
	"fmt"

	"tako/internal/cpu"
	"tako/internal/morphs"
	"tako/internal/sim"
	"tako/internal/system"
	"tako/internal/workloads"
)

// scale sizes every workload's inputs. "full" is the benchmark; "smoke"
// keeps each rep well under a second for the tier-1 test.
//
// The full graphs are a quarter of the studies' defaults, with caches
// shrunk by the same factor (CacheScale 128 instead of 64 and 32) so
// vertex data still exceeds the LLC. A rep then takes 1-3 s, so a
// 30-second run holds about ten: enough for a median that short bursts
// of load on a shared machine do not move.
type scale struct {
	PHIV, PHIE   int // PHI graph (uniform synthetic)
	PHITiles     int // tiles = threads for both PHI workloads
	HATSV, HATSE int // HATS graph (community structured, V/64 communities)
	HATSTiles    int
	CacheScale   int    // PHI and HATS cache shrink factor
	FFV, FFE     int    // fast-forwarded scatter graph (workloads.EdgeStream)
	FFWindow     uint64 // accesses simulated in full after the switchover
	FFTiles      int
}

var scales = map[string]scale{
	"full": {
		PHIV: 8 << 10, PHIE: 80 << 10, PHITiles: 8,
		HATSV: 8 << 10, HATSE: 80 << 10, HATSTiles: 8, CacheScale: 128,
		FFV: 64 << 10, FFE: 1 << 20, FFWindow: 16 << 10, FFTiles: 16,
	},
	"smoke": {
		PHIV: 2 << 10, PHIE: 20 << 10, PHITiles: 4,
		HATSV: 2 << 10, HATSE: 20 << 10, HATSTiles: 4, CacheScale: 128,
		FFV: 16 << 10, FFE: 128 << 10, FFWindow: 4 << 10, FFTiles: 16,
	},
}

// prepared is a workload whose inputs and machine are built: the setup
// span is over, and run is the simulation call the run span times.
type prepared struct {
	run func() error
	// collect reads the finished run's record and counts.
	collect func() outcome
	// verify checks the outcome beyond what the simulation call itself
	// verifies (RunPHI and RunHATS compare against their functional
	// references inside run).
	verify func(outcome) error
}

// outcome is what one simulation produced.
type outcome struct {
	rec          *system.RunRecord
	ffAccesses   uint64
	dramAccesses uint64
	engineInstrs uint64
}

// workload is one benchmark input set.
type workload struct {
	name string
	why  string
	// prepare builds the inputs from the seed. It runs after the
	// process-wide capture is armed, so every System it builds records.
	prepare func(sc scale, seed int64) prepared
}

// workloadList is the benchmark's workloads, in round-robin order.
var workloadList = []workload{
	{
		name: "phi-tako",
		why: "PHI on täkō (Fig 13) on the classic kernel: write/RMO-heavy onMiss and onWriteback callbacks; " +
			"proc handoff dominates its host time",
		prepare: func(sc scale, seed int64) prepared { return preparePHI(sc, seed) },
	},
	{
		name: "hats-tako",
		why: "HATS on täkō (Fig 16): the same engine, hier and cache layers driven by reads " +
			"(onMiss edge streams through the prefetcher and rTLB)",
		prepare: func(sc scale, seed int64) prepared { return prepareHATS(sc, seed) },
	},
	{
		name: "phi-tako-sharded",
		why: "phi-tako's inputs on sim.Sharded with 2 workers: the only workload that exercises epochs, " +
			"barriers, mailboxes and the message protocol",
		prepare: func(sc scale, seed int64) prepared {
			system.SetDefaultSharded(true, 2)
			return preparePHI(sc, seed)
		},
	},
	{
		name: "ff-scatter",
		why: "Fig 25's fast-forwarded scatter on the 16-tile baseline: analytic and mem do the work " +
			"while engine and most of hier are bypassed",
		prepare: prepareFF,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func preparePHI(sc scale, seed int64) prepared {
	prm := morphs.DefaultPHIParams()
	prm.V, prm.E = sc.PHIV, sc.PHIE
	prm.Tiles, prm.Threads = sc.PHITiles, sc.PHITiles
	prm.CacheScale = sc.CacheScale
	prm.Seed = seed
	var res morphs.Result
	return prepared{
		run: func() (err error) {
			res, err = morphs.RunPHI(morphs.PHITako, prm)
			return err
		},
		collect: func() outcome { return resultOutcome(res) },
		verify:  checkRecord,
	}
}

func prepareHATS(sc scale, seed int64) prepared {
	prm := morphs.DefaultHATSParams()
	prm.V, prm.E = sc.HATSV, sc.HATSE
	prm.Communities = sc.HATSV / 64
	prm.Tiles = sc.HATSTiles
	prm.CacheScale = sc.CacheScale
	prm.Seed = seed
	var res morphs.Result
	return prepared{
		run: func() (err error) {
			res, err = morphs.RunHATS(morphs.HATSTako, prm)
			return err
		},
		collect: func() outcome { return resultOutcome(res) },
		verify:  checkRecord,
	}
}

func resultOutcome(r morphs.Result) outcome {
	return outcome{rec: r.Record, dramAccesses: r.DRAMAccesses, engineInstrs: r.EngineInstrs}
}

func checkRecord(o outcome) error {
	if o.rec == nil {
		return errors.New("the run left no capture record")
	}
	return nil
}

// prepareFF builds the fig25full scatter: one rank load per vertex, one
// edge-word load plus one scatter atomic per edge, on the 16-tile
// baseline machine with everything but the last FFWindow accesses
// fast-forwarded.
func prepareFF(sc scale, seed int64) prepared {
	total := uint64(sc.FFV) + 2*uint64(sc.FFE)
	cfg := system.Default(sc.FFTiles)
	cfg.NoTako = true
	cfg.FastForward = total - sc.FFWindow
	s := system.New(cfg)
	es := workloads.EdgeStream{V: sc.FFV, E: sc.FFE, Seed: uint64(seed)}
	ranks := s.Alloc("ranks", uint64(sc.FFV)*8)
	edges := s.Alloc("edges", (uint64(sc.FFE)*4+7)&^7)
	// added[t] is what tile t added to ranks: the ranks start at zero, so
	// their final sum must equal the sum of every tile's additions.
	added := make([]uint64, sc.FFTiles)
	for t := 0; t < sc.FFTiles; t++ {
		t := t
		lo, hi := t*sc.FFV/sc.FFTiles, (t+1)*sc.FFV/sc.FFTiles
		s.Go(t, "scatter", func(p *sim.Proc, _ *cpu.Core) {
			for src := lo; src < hi; src++ {
				contrib := s.H.Load(p, t, ranks.Word(uint64(src)))%16 + 1
				end := es.Offset(src + 1)
				for i := es.Offset(src); i < end; i++ {
					s.H.Load(p, t, edges.At(i*4&^7))
					s.H.AtomicAddLocal(p, t, ranks.Word(es.Dst(i)), contrib)
					added[t] += contrib
				}
			}
		})
	}
	return prepared{
		run: func() error {
			s.Run()
			return nil
		},
		collect: func() outcome {
			return outcome{
				rec:          system.LabelRun(s, "bench/ff-scatter", s.Ops()),
				ffAccesses:   s.H.FFAccesses(),
				dramAccesses: s.H.DRAMAccesses(),
			}
		},
		verify: func(o outcome) error {
			if err := checkRecord(o); err != nil {
				return err
			}
			if o.ffAccesses != cfg.FastForward {
				return fmt.Errorf("fast-forwarded %d accesses, want %d", o.ffAccesses, cfg.FastForward)
			}
			var want, got uint64
			for _, a := range added {
				want += a
			}
			for v := 0; v < sc.FFV; v++ {
				got += s.H.DebugReadWord(ranks.Word(uint64(v)))
			}
			if got != want {
				return fmt.Errorf("ranks sum to %d, want %d", got, want)
			}
			return nil
		},
	}
}
