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

// shardedConfig returns a baseline sharded machine config. Fresh checks
// are cleared explicitly: they read remote tile state mid-epoch, which
// the sharded build rejects (barrier checks replace them).
func shardedConfig(tiles, workers int) Config {
	cfg := Default(tiles)
	cfg.NoTako = true
	cfg.Sharded = true
	cfg.ShardWorkers = workers
	cfg.Hier.FreshChecks = false
	return cfg
}

// runSharedCounterWorkload drives a cross-tile workload over every
// coherence path the message protocol carries: exclusive write fetches,
// read downgrades of remote owners, RMO invalidations of the sharer set,
// and polling re-fetches. Each tile stores a stripe of words, announces
// completion through an atomic counter at the home bank, spins on the
// counter, then reads back every tile's stripe. Returns the per-tile
// readback (architectural values observed by committed loads) and the
// run fingerprint.
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
		i := i
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
		cycles, s.Ops(), s.TotalInstrs(), s.KernelEvents(), snap)
	return out, fp
}

// wantReadback is the architectural truth every tile must observe after
// the counter barrier: tile i's stripe word j holds i*1000+j.
func checkReadback(t *testing.T, out [][]uint64, tiles int) {
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

func TestShardedSystemSmoke(t *testing.T) {
	out, _ := runSharedCounterWorkload(t, shardedConfig(4, 0))
	checkReadback(t, out, 4)
}

// TestShardedDeterminismAcrossWorkers is the determinism battery at the
// system level: the same sharded machine run sequenced and with 2 and 4
// workers must produce byte-identical fingerprints — cycle count, op
// count, kernel events, and the full metrics snapshot.
func TestShardedDeterminismAcrossWorkers(t *testing.T) {
	outRef, ref := runSharedCounterWorkload(t, shardedConfig(4, 0))
	checkReadback(t, outRef, 4)
	for _, workers := range []int{1, 2, 4} {
		out, fp := runSharedCounterWorkload(t, shardedConfig(4, workers))
		if fp != ref {
			t.Fatalf("workers=%d diverged:\n got %s\nwant %s", workers, fp, ref)
		}
		if !reflect.DeepEqual(out, outRef) {
			t.Fatalf("workers=%d observed different architectural values", workers)
		}
	}
}

// TestShardedMatchesClassicArchitecturally cross-checks the sharded
// machine against the classic kernel on the same workload.
// Cycle counts legitimately differ (sharded cross-tile operations pay
// real message round trips; the classic engine resolves them under one
// clock), so the comparison is architectural only: every committed load
// observes the same values, and the instruction count is identical.
func TestShardedMatchesClassicArchitecturally(t *testing.T) {
	classic := Default(4)
	classic.NoTako = true
	outC, _ := runSharedCounterWorkload(t, classic)
	checkReadback(t, outC, 4)

	outS, _ := runSharedCounterWorkload(t, shardedConfig(4, 2))
	if !reflect.DeepEqual(outS, outC) {
		t.Fatal("sharded run observed different architectural values than the classic kernel")
	}
}

// TestShardedEvictionStressWithBarrierChecks forces shared-cache
// evictions (back-invalidations with recalls and dirty writebacks) on a
// scaled-down machine while the full invariant checker runs at every
// epoch barrier (SelfCheckEvery > 0 arms InstallBarrierChecks on a
// sharded build). Any protocol race — stale DRAM reads, directory/owned
// divergence, double writebacks — panics the run.
func TestShardedEvictionStressWithBarrierChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := shardedConfig(4, 2)
	cfg.Hier = hier.ScaledConfig(4, 64)
	cfg.Hier.FreshChecks = false
	cfg.Hier.SelfCheckEvery = 4
	s := New(cfg)
	region := s.Alloc("stress", 1<<20)
	const lines = 2048
	for i := 0; i < 4; i++ {
		i := i
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
