package sim

import "fmt"

// This file adds workload-level synchronization primitives for code
// hosted on a Sharded engine. The classic kernel gives workloads a
// global clock and shared-state barriers (sync.go); neither exists on a
// sharded build, where every cross-shard interaction must be a
// lookahead-respecting message. ShardedBarrier is the message-passing
// form of Barrier, and Sharded.RunUntil is the epoch-clamped form of
// Kernel.RunUntil for crash harnesses.

// Rendezvous is the interface shared by the classic Barrier and the
// sharded ShardedBarrier: a reusable all-arrive/all-release point for a
// fixed set of processes. Workload code written against Rendezvous runs
// unchanged on either engine.
type Rendezvous interface {
	Arrive(p *Proc)
}

var (
	_ Rendezvous = (*Barrier)(nil)
	_ Rendezvous = (*ShardedBarrier)(nil)
)

// ShardOf returns the shard index whose kernel is k, panicking for a
// kernel that belongs to no shard of this engine.
func (s *Sharded) ShardOf(k *Kernel) int {
	for i, sh := range s.shards {
		if sh.K == k {
			return i
		}
	}
	panic("sim: kernel belongs to no shard of this engine")
}

// shardedWaiter is one parked barrier participant: the shard it lives on
// and the (participant-owned, pooled) future its release completes.
type shardedWaiter struct {
	origin int
	fut    *Future
}

// ShardedBarrier is a reusable rendezvous for processes spread across
// the shards of one Sharded engine. Arrivals travel to a home shard as
// messages with a fixed modeled delay, the home shard counts them, and
// the last arrival releases every waiter — remote waiters by a
// cross-shard future completion, home-shard waiters by a local event.
// Because every message is ordered by its (cycle, origin shard, origin
// sequence) key and the home-side counter is only ever touched from
// home-shard events, a ShardedBarrier round is byte-identical at any
// worker count. A release costs two message delays where the classic
// Barrier costs zero cycles; sharded cycle counts honestly differ.
type ShardedBarrier struct {
	s       *Sharded
	home    int
	n       int
	delay   Cycle
	arrived int
	waiters []shardedWaiter
}

// NewShardedBarrier returns a barrier for n participants, coordinated on
// shard home, whose arrival and release messages each take delay cycles
// (at least the engine's lookahead).
func NewShardedBarrier(s *Sharded, home, n int, delay Cycle) *ShardedBarrier {
	if n <= 0 {
		panic("sim: barrier needs at least one participant")
	}
	return &ShardedBarrier{s: s, home: s.shardIndex(home), n: n, delay: delay}
}

// Arrive blocks p until all participants of the current generation have
// arrived. p may live on any shard; its arrival is shipped to the home
// shard as a message and its wake-up travels back the same way.
func (b *ShardedBarrier) Arrive(p *Proc) {
	origin := b.s.ShardOf(p.Kernel())
	f := p.Kernel().GetFuture()
	if origin == b.home {
		// Home-shard arrival: the barrier state is owned by this shard,
		// and p is running on it, so the count updates directly.
		b.arriveAt(origin, f)
	} else {
		b.s.Shard(origin).Send(b.home, b.delay, func() {
			b.arriveAt(origin, f)
		})
	}
	p.Wait(f)
	// Pooled futures completed by a completeAt event recycle themselves;
	// home-shard releases complete through the same event path.
}

// arriveAt runs on the home shard (proc context for home-local arrivals,
// event context for remote ones): count the arrival and release the
// generation when full.
func (b *ShardedBarrier) arriveAt(origin int, f *Future) {
	b.waiters = append(b.waiters, shardedWaiter{origin, f})
	b.arrived++
	if b.arrived < b.n {
		return
	}
	if b.arrived > b.n {
		panic(fmt.Sprintf("sim: %d arrivals at a %d-participant barrier", b.arrived, b.n))
	}
	home := b.s.Shard(b.home)
	for _, w := range b.waiters {
		if w.origin == b.home {
			home.K.completeAt(home.K.now, w.fut)
		} else {
			home.SendComplete(w.origin, b.delay, w.fut)
		}
	}
	b.arrived = 0
	b.waiters = b.waiters[:0]
}

// RunUntil executes the epoch schedule with the given worker count until
// every event at or before limit has run, then advances every shard
// clock to limit — the sharded form of Kernel.RunUntil, used by crash
// harnesses that stop a machine mid-flight. Epochs are clamped at limit,
// so the executed prefix is exactly the events the unbounded run would
// have executed by then; results are byte-identical at any worker count.
func (s *Sharded) RunUntil(limit Cycle, workers int) {
	s.epochs(limit, workers)
	for _, sh := range s.shards {
		sh.K.RunUntil(limit) // no events ≤ limit remain; advances the clock
	}
}
