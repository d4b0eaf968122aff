package system

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"tako/internal/cpu"
	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

// Whole-machine coherence checks on a cross-tile workload that drives
// every coherence path between tiles: each tile reads back what every
// tile stored, a rerun reproduces the first run byte for byte, the täkō
// build observes what the baseline build observes, and an eviction
// stress survives the invariant checker.

// baselineConfig returns a four-tile machine without täkō engines.
func baselineConfig() Config {
	cfg := Default(4)
	cfg.NoTako = true
	return cfg
}

// runSharedCounterWorkload drives a cross-tile workload over exclusive
// write fetches, read downgrades of remote owners, RMO invalidations of
// the sharer set, and polling re-fetches. Each tile stores a stripe of
// words, announces completion through an atomic counter at the home
// bank, spins on the counter, then reads back every tile's stripe.
// Returns the per-tile readback (architectural values observed by
// committed loads) and the run fingerprint.
func runSharedCounterWorkload(t *testing.T, cfg Config) ([][]uint64, string) {
	t.Helper()
	const wordsPerTile = 16
	tiles := cfg.Tiles
	s := New(cfg)
	data := s.Alloc("data", uint64(tiles*wordsPerTile*8+4096))
	ctr := data.Base + mem.Addr(tiles*wordsPerTile*8+512)
	out := make([][]uint64, tiles)
	for i := 0; i < tiles; i++ {
		out[i] = make([]uint64, tiles*wordsPerTile)
		s.Go(i, "worker", func(p *sim.Proc, c *cpu.Core) {
			for j := 0; j < wordsPerTile; j++ {
				c.Store(p, data.Base+mem.Addr((i*wordsPerTile+j)*8), uint64(i*1000+j))
			}
			c.AtomicAddSync(p, ctr, 1)
			for c.Load(p, ctr) != uint64(tiles) {
				p.Sleep(50)
			}
			for k := 0; k < tiles*wordsPerTile; k++ {
				out[i][k] = c.Load(p, data.Base+mem.Addr(k*8))
			}
		})
	}
	cycles := s.Run()
	snap, err := json.Marshal(s.H.Metrics.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	fp := fmt.Sprintf("cycles=%d ops=%d instrs=%d events=%d metrics=%s",
		cycles, s.Ops(), s.TotalInstrs(), s.K.Events(), snap)
	return out, fp
}

// checkReadback checks the architectural truth every tile must observe
// after the counter barrier: tile i's stripe word j holds i*1000+j.
func checkReadback(t *testing.T, out [][]uint64) {
	t.Helper()
	const wordsPerTile = 16
	for i := range out {
		for k, v := range out[i] {
			if want := uint64((k/wordsPerTile)*1000 + k%wordsPerTile); v != want {
				t.Fatalf("tile %d read word %d = %d, want %d", i, k, v, want)
			}
		}
	}
}

// TestShardedSystemSmoke: on the baseline machine every tile reads back
// what every tile stored.
func TestShardedSystemSmoke(t *testing.T) {
	out, _ := runSharedCounterWorkload(t, baselineConfig())
	checkReadback(t, out)
}

// TestShardedDeterminismAcrossWorkers: a second machine built in the
// same process reproduces the first run byte for byte — cycle count, op
// count, kernel events, the full metrics snapshot and every value read.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	outRef, ref := runSharedCounterWorkload(t, baselineConfig())
	checkReadback(t, outRef)
	out, fp := runSharedCounterWorkload(t, baselineConfig())
	if fp != ref {
		t.Fatalf("rerun diverged:\n got %s\nwant %s", fp, ref)
	}
	if !reflect.DeepEqual(out, outRef) {
		t.Fatal("rerun observed different architectural values")
	}
}

// TestShardedMatchesClassicArchitecturally runs the workload on the
// täkō build (engines attached) and checks that every committed load
// observes the same values as on the baseline build.
func TestShardedMatchesClassicArchitecturally(t *testing.T) {
	outC, _ := runSharedCounterWorkload(t, baselineConfig())
	checkReadback(t, outC)

	outT, _ := runSharedCounterWorkload(t, Default(4))
	if !reflect.DeepEqual(outT, outC) {
		t.Fatal("the täkō build observed different architectural values than the baseline")
	}
}

// TestShardedEvictionStressWithBarrierChecks forces shared-cache
// evictions (back-invalidations with recalls and dirty writebacks) on a
// scaled-down machine while the full invariant checker runs every few
// events (SelfCheckEvery) and freshness checks run on every access. Any
// protocol race — stale DRAM reads, directory divergence, double
// writebacks — panics the run.
func TestShardedEvictionStressWithBarrierChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := baselineConfig()
	cfg.Hier = hier.ScaledConfig(4, 64)
	cfg.Hier.FreshChecks = true
	cfg.Hier.SelfCheckEvery = 4
	s := New(cfg)
	region := s.Alloc("stress", 1<<20)
	const lines = 2048
	for i := 0; i < 4; i++ {
		s.Go(i, "stress", func(p *sim.Proc, c *cpu.Core) {
			// Stream stores over far more lines than the scaled L3 holds,
			// sharing lines across tiles (stride collisions), mixing in
			// atomics and non-temporal stores.
			for j := 0; j < lines; j++ {
				a := region.Base + mem.Addr(((i*37+j)%lines)*64)
				c.Store(p, a, uint64(i*lines+j))
				if j%17 == 0 {
					c.AtomicAdd(p, region.Base+mem.Addr((j%64)*64+8), 1)
				}
				if j%29 == 0 {
					var l mem.Line
					l.SetWord(0, uint64(j))
					c.StoreLineNT(p, region.Base+mem.Addr(((j*13)%lines)*64), &l)
				}
				if j%41 == 0 {
					c.AtomicExchange(p, region.Base+mem.Addr((j%64)*64+16), uint64(j))
				}
			}
			c.DrainRMOs(p)
		})
	}
	if cycles := s.Run(); cycles == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if err := s.H.CheckInvariants(); err != nil {
		t.Fatalf("post-run invariant check: %v", err)
	}
}
