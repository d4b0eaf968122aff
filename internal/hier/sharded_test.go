package hier

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tako/internal/energy"
	"tako/internal/mem"
	"tako/internal/noc"
	"tako/internal/sim"
)

// newShardedH builds a sharded hierarchy on its own engine, one shard
// per tile, with the engine lookahead set to the mesh's minimum
// cross-tile latency (the widest legal epoch).
func newShardedH(cfg Config) (*sim.Sharded, *Hierarchy) {
	cfg.FreshChecks = false
	m := noc.NewMesh(cfg.NoC, nil)
	eng := sim.NewSharded(cfg.Tiles, m.MinCrossTileLatency())
	h := NewSharded(eng, cfg, energy.NewMeter(), nil, nil)
	return eng, h
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestShardedLookaheadIsLowerBound is the lookahead soundness property:
// for randomized NoC configurations (router/link delays, flit widths,
// grid shapes), every cross-tile message of any size costs at least
// Mesh.MinCrossTileLatency — the epoch width the sharded engine runs
// with — and configurations where no positive lower bound exists are
// rejected at construction rather than silently under-synchronized.
func TestShardedLookaheadIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 200; it++ {
		tiles := []int{2, 4, 6, 9, 16}[rng.Intn(5)]
		nc := noc.DefaultConfig(tiles)
		nc.RouterDelay = sim.Cycle(rng.Intn(5))
		nc.LinkDelay = sim.Cycle(rng.Intn(5))
		nc.FlitBytes = []int{8, 16, 32}[rng.Intn(3)]
		m := noc.NewMesh(nc, nil)
		min := m.MinCrossTileLatency()

		if nc.RouterDelay+nc.LinkDelay == 0 {
			// A zero-cost hop means a 1-flit message arrives in 0 cycles:
			// no positive lookahead is a lower bound, and the sharded
			// build must refuse the configuration.
			cfg := ScaledConfig(tiles, 64)
			cfg.NoC = nc
			cfg.FreshChecks = false
			mustPanic(t, "NewSharded with zero cross-tile latency", func() {
				NewSharded(sim.NewSharded(tiles, 1), cfg, energy.NewMeter(), nil, nil)
			})
			continue
		}
		if min < 1 {
			t.Fatalf("config %+v: MinCrossTileLatency = %d < 1 with nonzero hop cost", nc, min)
		}
		for from := 0; from < tiles; from++ {
			for to := 0; to < tiles; to++ {
				if from == to {
					continue
				}
				for _, bytes := range []int{1, 8, 64, 256} {
					if lat := m.Latency(from, to, bytes); lat < min {
						t.Fatalf("config %+v: Latency(%d,%d,%dB) = %d < lookahead %d",
							nc, from, to, bytes, lat, min)
					}
				}
			}
		}
	}
}

// TestShardedLookaheadPanics pins the two guard rails around the epoch
// width: an engine whose lookahead exceeds the mesh's minimum cross-tile
// latency is rejected by NewSharded (its messages would have to violate
// the lookahead), and the engine itself panics on any cross-shard send
// below its lookahead.
func TestShardedLookaheadPanics(t *testing.T) {
	cfg := ScaledConfig(4, 64)
	cfg.FreshChecks = false
	m := noc.NewMesh(cfg.NoC, nil)
	min := m.MinCrossTileLatency()

	mustPanic(t, "NewSharded with lookahead > min cross-tile latency", func() {
		NewSharded(sim.NewSharded(4, min+1), cfg, energy.NewMeter(), nil, nil)
	})

	eng := sim.NewSharded(2, 3)
	mustPanic(t, "cross-shard send below the engine lookahead", func() {
		eng.Shard(0).Send(1, 2, func() {})
	})
}

// TestShardedLookaheadRandomNoCEndToEnd drives the full message protocol
// on randomized legal NoC configurations: whatever the router/link
// delays, every cross-tile message must stay at or above the engine
// lookahead (the engine panics if not) and the workload must still
// commit the right values.
func TestShardedLookaheadRandomNoCEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 8; it++ {
		cfg := ScaledConfig(4, 64)
		cfg.NoC.RouterDelay = sim.Cycle(1 + rng.Intn(4))
		cfg.NoC.LinkDelay = sim.Cycle(rng.Intn(4))
		eng, h := newShardedH(cfg)
		for i := 0; i < 4; i++ {
			i := i
			eng.Shard(i).K.Go("w", func(p *sim.Proc) {
				base := mem.Addr(0x40000 + i*0x8000)
				for j := 0; j < 32; j++ {
					h.Store(p, i, base+mem.Addr(j*64), uint64(i*100+j))
				}
				// Cross-tile reads of the neighbor's stripe: downgrades
				// and fetches at whatever latency this config produces.
				nb := mem.Addr(0x40000 + ((i + 1) % 4 * 0x8000))
				for j := 0; j < 32; j++ {
					if v := h.Load(p, i, nb+mem.Addr(j*64)); v != uint64(((i+1)%4)*100+j) {
						t.Errorf("iter %d tile %d: neighbor word %d = %d", it, i, j, v)
					}
				}
			})
		}
		eng.Run(2)
		if blocked := eng.Blocked(); len(blocked) > 0 {
			t.Fatalf("iter %d deadlocked: %v", it, blocked)
		}
		h.FinishStats()
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		eng.Release()
	}
}

// TestShardedResultIndependentOfLookahead pins that the engine lookahead
// is only a synchronization bound: a cross-tile store / atomic-add /
// neighbor-load workload gives the same final cycle, kernel events,
// loaded values and metrics snapshot at lookahead 1 and 2, on one worker
// and on two, as at the mesh's minimum cross-tile latency.
func TestShardedResultIndependentOfLookahead(t *testing.T) {
	const tiles = 4
	cfg := ScaledConfig(tiles, 64)
	cfg.FreshChecks = false
	type result struct {
		cycle, events uint64
		loads         []uint64
		metrics       string
	}
	run := func(lookahead sim.Cycle, workers int) result {
		eng := sim.NewSharded(tiles, lookahead)
		h := NewSharded(eng, cfg, energy.NewMeter(), nil, nil)
		loads := make([][]uint64, tiles)
		const counters = mem.Addr(0x200000)
		for i := 0; i < tiles; i++ {
			i := i
			eng.Shard(i).K.Go("w", func(p *sim.Proc) {
				own := mem.Addr(0x40000 + i*0x8000)
				nb := mem.Addr(0x40000 + (i+1)%tiles*0x8000)
				for j := 0; j < 64; j++ {
					h.Store(p, i, own+mem.Addr(j%8*64), uint64(i*100+j))
					h.AtomicAdd(p, i, counters+mem.Addr(j%4*64), 1)
					loads[i] = append(loads[i], h.Load(p, i, nb+mem.Addr(j%8*64)))
					p.Sleep(sim.Cycle(j % 3))
				}
				h.DrainRMOs(p, i)
				loads[i] = append(loads[i], h.Load(p, i, counters))
			})
		}
		eng.Run(workers)
		if blocked := eng.Blocked(); len(blocked) > 0 {
			t.Fatalf("lookahead %d, %d workers: deadlocked: %v", lookahead, workers, blocked)
		}
		h.FinishStats()
		var r result
		for i := 0; i < tiles; i++ {
			if now := eng.Shard(i).K.Now(); now > r.cycle {
				r.cycle = now
			}
			r.events += eng.Shard(i).K.Events()
			r.loads = append(r.loads, loads[i]...)
		}
		var b strings.Builder
		if err := h.Metrics.Snapshot().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		r.metrics = b.String()
		eng.Release()
		return r
	}
	want := run(noc.NewMesh(cfg.NoC, nil).MinCrossTileLatency(), 1)
	for _, lookahead := range []sim.Cycle{1, 2} {
		for _, workers := range []int{1, 2} {
			got := run(lookahead, workers)
			if got.cycle != want.cycle || got.events != want.events {
				t.Errorf("lookahead %d, %d workers: cycle %d, %d events; want cycle %d, %d events",
					lookahead, workers, got.cycle, got.events, want.cycle, want.events)
			}
			if fmt.Sprint(got.loads) != fmt.Sprint(want.loads) {
				t.Errorf("lookahead %d, %d workers: loaded values differ:\n got %v\nwant %v",
					lookahead, workers, got.loads, want.loads)
			}
			if got.metrics != want.metrics {
				t.Errorf("lookahead %d, %d workers: metrics snapshot differs", lookahead, workers)
			}
		}
	}
}

// TestShardedAttributionConservation is the attribution conservation
// invariant under sharded execution: per transaction kind, the summed
// per-state dwell cycles equal the summed transaction totals (the
// histograms are commutative atomics, so this holds at any worker
// count), and for a pure demand-load workload the access-kind total
// equals the summed load latency exactly.
func TestShardedAttributionConservation(t *testing.T) {
	const tiles = 4
	cfg := DefaultConfig(tiles)
	cfg.FreshChecks = false
	cfg.Attribution = true
	eng, h := newShardedH(cfg)

	// Irregular line offsets: no two consecutive misses share a stride,
	// so the L2 prefetcher never gains confidence and every kindAccess
	// transaction is a demand load (a prefetch access would add dwell
	// the load-latency histogram can't see).
	offs := []int{0, 3, 1, 7, 2, 11, 5, 13}
	for i := 0; i < tiles; i++ {
		for j, o := range offs {
			h.DRAM.Store().WriteU64(mem.Addr(0x100000*(i+1)+o*64), uint64(100*i+j))
		}
	}
	for i := 0; i < tiles; i++ {
		i := i
		eng.Shard(i).K.Go("core", func(p *sim.Proc) {
			for j, o := range offs {
				// Own stripe, then the neighbor's (cross-tile fetches).
				if v := h.Load(p, i, mem.Addr(0x100000*(i+1)+o*64)); v != uint64(100*i+j) {
					t.Errorf("tile %d own word %d = %d", i, j, v)
				}
				nb := (i + 1) % tiles
				if v := h.Load(p, i, mem.Addr(0x100000*(nb+1)+o*64)); v != uint64(100*nb+j) {
					t.Errorf("tile %d neighbor word %d = %d", i, j, v)
				}
			}
		})
	}
	eng.Run(2)
	if blocked := eng.Blocked(); len(blocked) > 0 {
		t.Fatalf("deadlocked: %v", blocked)
	}
	h.FinishStats()
	eng.Release()

	for kind := 0; kind < nTxnKinds; kind++ {
		dwell := sumDwell(h, txnKind(kind))
		total := h.attr.total[kind].Sum()
		if dwell != total {
			t.Errorf("kind %v: Σ state dwell = %v, Σ total = %v", txnKind(kind), dwell, total)
		}
	}
	if h.attr.total[kindAccess].Count() == 0 || h.attr.total[kindHomeFetch].Count() == 0 {
		t.Fatal("workload should exercise access and home-fetch kinds")
	}
	if at, ll := h.attr.total[kindAccess].Sum(), h.hot.loadLat.Sum(); at != ll {
		t.Errorf("Σ access total = %v, Σ load latency = %v", at, ll)
	}
	if want := float64(h.hot.loadLat.Sum()); h.LoadLat.Sum != want {
		t.Errorf("merged LoadLat sum = %v, load.latency histogram = %v", h.LoadLat.Sum, want)
	}
}

// TestShardedSlowestKCapture pins the sharded slow-access capture: each
// tile offers its demand accesses into its own top-K ring, and
// SlowestAccesses merges the rings into one global top K — slowest
// first, byte-identical at any worker count.
func TestShardedSlowestKCapture(t *testing.T) {
	run := func(workers int) []SlowAccess {
		const tiles = 4
		cfg := DefaultConfig(tiles)
		cfg.FreshChecks = false
		cfg.Attribution = true
		cfg.SlowestK = 6
		eng, h := newShardedH(cfg)
		for i := 0; i < tiles; i++ {
			i := i
			eng.Shard(i).K.Go("core", func(p *sim.Proc) {
				for j := 0; j < 8; j++ {
					// Own stripe then the neighbor's: a mix of local and
					// cross-tile miss latencies to rank.
					h.Load(p, i, mem.Addr(0x100000*(i+1)+j*64))
					h.Load(p, i, mem.Addr(0x100000*((i+1)%tiles+1)+j*64))
				}
			})
		}
		eng.Run(workers)
		if blocked := eng.Blocked(); len(blocked) > 0 {
			t.Fatalf("workers=%d deadlocked: %v", workers, blocked)
		}
		h.FinishStats()
		eng.Release()
		return h.SlowestAccesses()
	}
	got := run(1)
	if len(got) != 6 {
		t.Fatalf("captured %d slow accesses, want 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Latency > got[i-1].Latency {
			t.Fatalf("entry %d (%d cyc) slower than entry %d (%d cyc): not sorted slowest-first",
				i, got[i].Latency, i-1, got[i-1].Latency)
		}
	}
	for _, workers := range []int{2, 4} {
		other := run(workers)
		if len(other) != len(got) {
			t.Fatalf("workers=%d captured %d entries, workers=1 captured %d", workers, len(other), len(got))
		}
		for i := range got {
			if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", other[i]) {
				t.Fatalf("workers=%d entry %d = %+v, workers=1 entry = %+v", workers, i, other[i], got[i])
			}
		}
	}
}
