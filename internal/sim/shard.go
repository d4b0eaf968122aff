package sim

import (
	"fmt"
	"math"
)

// This file implements the tile-sharded parallel event kernel: a
// conservative parallel-discrete-event-simulation (PDES) coordinator
// over per-shard Kernels.
//
// Each shard owns a full Kernel (queue, clock, proc/future pools) and is
// only ever touched by one goroutine at a time. Shards advance together
// through epochs derived from the lookahead — a lower bound on the delay
// of any cross-shard send (for the täkō CMP, the minimum NoC hop latency;
// see noc.Mesh.MinCrossTileLatency). Within an epoch a shard may execute
// every event strictly before the epoch horizon without synchronizing,
// because any message another shard sends during the same epoch cannot
// arrive before the horizon. Cross-shard events travel through
// per-(sender,receiver) mailboxes that are emptied at the epoch barrier.
//
// Every event of every shard has one key, (cycle, origin shard, origin
// sequence), fixed when it is scheduled:
//
//   - a shard kernel's sequence numbers carry its shard id in the top
//     bits (NewSharded), so a local event's origin is its own shard and
//     the kernel's ordinary (cycle, sequence) order is this key;
//   - a send is stamped by its sender (post) with the sender's next
//     sequence number and an arrival cycle pushed past the last arrival
//     already promised on that (sender, receiver) channel, so each
//     channel is FIFO.
//
// The key depends only on the simulated execution, never on where the
// epoch barriers fall, how many workers run the shards, or the order the
// mailboxes are emptied in. Any safe execution therefore runs every
// shard's events in the same order, and the merged schedule — and every
// simulated outcome — is byte-identical at any lookahead up to the true
// minimum send delay and at any worker count.
//
// Run(workers) executes epochs on worker goroutines; RunSequenced is the
// single-threaded reference that executes the identical epoch schedule
// inline (shard 0 first, then 1, ...). The determinism battery
// (shard_test.go) pins that equivalence at widths 1/2/4/16 and across
// lookaheads under the race detector.

// originShift places a shard kernel's id in the top bits of its event
// sequence numbers, leaving 2^48 events per shard.
const originShift = 48

// Shard is one tile's slice of a Sharded kernel: a private Kernel plus
// outgoing mailboxes. All access to a Shard (building processes on K,
// sending) must happen either before Run or from code executing on this
// shard's own events.
type Shard struct {
	s  *Sharded
	id int
	// K is the shard's private event kernel. Procs that live on this
	// shard are created on it.
	K *Kernel

	out     [][]event // outgoing mailbox per destination shard
	last    []Cycle   // latest arrival promised per destination channel
	failure any       // panic captured during an epoch; re-raised by the coordinator
}

// ID returns the shard's index.
func (sh *Shard) ID() int { return sh.id }

// Send schedules fn on shard to, at least delay cycles from this shard's
// current time: later if an earlier send on the same (this, to) channel
// was promised a later arrival, since every channel is FIFO. Cross-shard
// sends must respect the lookahead: delay < lookahead panics, because
// delivery happens at epoch barriers and a shorter delay could land
// inside the receiver's already-executed window (the classic
// conservative-PDES causality violation). Sends to this shard itself
// have no minimum delay.
func (sh *Shard) Send(to int, delay Cycle, fn func()) {
	sh.post(to, delay, event{fn: fn})
}

// SendWake schedules p — a process living on shard to — to be
// dispatched delay cycles from now. Ordering and lookahead rules are as
// in Send.
func (sh *Shard) SendWake(to int, delay Cycle, p *Proc) {
	if p.k != sh.s.Shard(to).K {
		panic(fmt.Sprintf("sim: SendWake to shard %d for a proc of a different shard", to))
	}
	sh.post(to, delay, event{proc: p})
}

// SendComplete schedules future f — owned by shard to — to complete
// delay cycles from now. Ordering and lookahead rules are as in Send.
func (sh *Shard) SendComplete(to int, delay Cycle, f *Future) {
	if f.k != sh.s.Shard(to).K {
		panic(fmt.Sprintf("sim: SendComplete to shard %d for a future of a different shard", to))
	}
	sh.post(to, delay, event{future: f})
}

// post stamps e with its final key — the sender's next sequence number
// and the channel's FIFO arrival cycle — and queues it: on this shard's
// own queue for a self-send, in the mailbox to shard to otherwise.
func (sh *Shard) post(to int, delay Cycle, e event) {
	to = sh.s.shardIndex(to)
	if to != sh.id && delay < sh.s.lookahead {
		panic(fmt.Sprintf(
			"sim: cross-shard send %d→%d with delay %d violates lookahead %d",
			sh.id, to, delay, sh.s.lookahead))
	}
	e.when = max(sh.K.now+delay, sh.last[to])
	sh.last[to] = e.when
	sh.K.seq++
	e.seq = sh.K.seq
	if to == sh.id {
		sh.K.push(e)
		return
	}
	sh.out[to] = append(sh.out[to], e)
}

// ShardedStats counts coordinator work for reports and tests.
type ShardedStats struct {
	Epochs   uint64 // barrier rounds executed
	Messages uint64 // cross-shard messages delivered
}

// Sharded coordinates n shard kernels through conservative epochs.
type Sharded struct {
	lookahead Cycle
	shards    []*Shard
	stats     ShardedStats

	// permute, when set (tests only), reorders the sender iteration of a
	// delivery; every message already carries its full key, so no such
	// reordering may change the schedule, which FuzzShardedDrainOrder
	// pins.
	permute func(senders int) []int

	// barrierHook, when set, runs on the coordinator after every epoch
	// barrier, while no shard worker is executing. Model-level checkers
	// (hier.CheckInvariants) use it to inspect cross-shard state at the
	// only points where that state is quiescent and the inspection cannot
	// perturb the schedule.
	barrierHook func()
}

// NewSharded builds a sharded kernel with n shards and the given
// lookahead (a lower bound on every cross-shard send delay, in cycles;
// ≥ 1). The lookahead only sets the epoch width: any value up to the
// true minimum send delay yields the same simulation.
func NewSharded(n int, lookahead Cycle) *Sharded {
	if n < 1 || n > 1<<(64-originShift) {
		panic(fmt.Sprintf("sim: sharded kernel needs 1 to %d shards, not %d", 1<<(64-originShift), n))
	}
	if lookahead < 1 {
		panic("sim: sharded kernel needs lookahead ≥ 1")
	}
	s := &Sharded{lookahead: lookahead}
	for i := 0; i < n; i++ {
		k := NewKernel()
		k.seq = uint64(i) << originShift
		s.shards = append(s.shards, &Shard{
			s:    s,
			id:   i,
			K:    k,
			out:  make([][]event, n),
			last: make([]Cycle, n),
		})
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Lookahead returns the configured conservative lookahead.
func (s *Sharded) Lookahead() Cycle { return s.lookahead }

// Shard returns shard i.
func (s *Sharded) Shard(i int) *Shard { return s.shards[s.shardIndex(i)] }

// Stats returns coordinator counters.
func (s *Sharded) Stats() ShardedStats { return s.stats }

// SetBarrierHook installs fn to run after every epoch barrier, on the
// coordinator goroutine, with every shard parked. Because it runs at a
// point that is totally ordered with all shard execution, anything fn
// observes is identical at any worker count.
func (s *Sharded) SetBarrierHook(fn func()) { s.barrierHook = fn }

func (s *Sharded) shardIndex(i int) int {
	if i < 0 || i >= len(s.shards) {
		panic(fmt.Sprintf("sim: shard %d out of range [0,%d)", i, len(s.shards)))
	}
	return i
}

// minNext returns the earliest pending event time across all shards.
func (s *Sharded) minNext() (Cycle, bool) {
	var best Cycle
	ok := false
	for _, sh := range s.shards {
		if when, has := sh.K.next(); has && (!ok || when < best) {
			best, ok = when, true
		}
	}
	return best, ok
}

// runShardEpoch runs one shard's events up to the (inclusive) epoch end,
// leaving its clock at its last event, and converts a panic on the shard
// — modeling bug, invariant violation, ProcPanic — into a stored failure
// the coordinator re-raises deterministically (lowest shard id first).
func (s *Sharded) runShardEpoch(id int, until Cycle) {
	sh := s.shards[id]
	defer func() {
		if r := recover(); r != nil {
			sh.failure = r
		}
	}()
	sh.K.drive(until)
}

// checkFailures re-raises the lowest-shard panic captured during an
// epoch, after tearing down every shard's parked processes so the
// caller can recover without leaking goroutines.
func (s *Sharded) checkFailures() {
	for _, sh := range s.shards {
		if sh.failure != nil {
			r := sh.failure
			s.Shutdown()
			panic(r)
		}
	}
}

// deliver moves every mailbox into its destination queue. post already
// stamped each message with its full (arrival, origin shard, origin
// sequence) key, so the push order cannot matter, which the permute test
// hook checks by scrambling it.
func (s *Sharded) deliver() {
	n := len(s.shards)
	for dest, d := range s.shards {
		var order []int
		if s.permute != nil {
			order = s.permute(n)
		}
		for i := 0; i < n; i++ {
			src := s.shards[i]
			if order != nil {
				src = s.shards[order[i]]
			}
			out := src.out[dest]
			for _, e := range out {
				if e.when < d.K.now {
					panic("sim: scheduling event in the past")
				}
				d.K.push(e)
			}
			s.stats.Messages += uint64(len(out))
			clear(out) // don't pin closures/procs from the pooled mailbox
			src.out[dest] = out[:0]
		}
	}
}

// RunSequenced executes the epoch schedule single-threaded: every epoch
// runs shard 0, then 1, ... inline. It is the reference semantics the
// parallel Run must match byte-for-byte (shards are independent within
// an epoch, so their execution order cannot matter; the determinism
// battery enforces exactly that).
func (s *Sharded) RunSequenced() { s.epochs(math.MaxUint64, 1) }

// Run executes epochs with the given number of worker goroutines
// (clamped to the shard count; ≤ 0 uses one worker per shard). Worker w
// owns shards w, w+workers, ...; ownership is fixed for the whole run,
// so a shard's kernel is only ever touched by one goroutine per epoch
// and never concurrently with the coordinator (the epoch barrier
// orders them). The simulated outcome is byte-identical at any worker
// count and to RunSequenced.
func (s *Sharded) Run(workers int) { s.epochs(math.MaxUint64, workers) }

// epochs is the coordinator loop behind Run, RunSequenced and RunUntil:
// deliver the mailboxes, find the earliest pending event E, run every
// shard through min(E+lookahead-1, limit), and meet at the barrier —
// until no event at or before limit remains. One worker runs the shards
// inline in id order; more run them on worker goroutines as Run
// describes.
func (s *Sharded) epochs(limit Cycle, workers int) {
	n := len(s.shards)
	if workers <= 0 || workers > n {
		workers = n
	}
	runEpoch := func(until Cycle) {
		for id := range s.shards {
			s.runShardEpoch(id, until)
		}
	}
	if workers > 1 {
		start := make([]chan Cycle, workers)
		done := make(chan struct{}, workers)
		for w := 0; w < workers; w++ {
			start[w] = make(chan Cycle, 1)
			go func(w int) {
				for until := range start[w] {
					for id := w; id < n; id += workers {
						s.runShardEpoch(id, until)
					}
					done <- struct{}{}
				}
			}(w)
		}
		defer func() {
			for _, c := range start {
				close(c)
			}
		}()
		runEpoch = func(until Cycle) {
			for _, c := range start {
				c <- until
			}
			for range start {
				<-done
			}
		}
	}
	for {
		s.deliver()
		e, ok := s.minNext()
		if !ok || e > limit {
			return
		}
		runEpoch(min(e+s.lookahead-1, limit))
		s.stats.Epochs++
		s.checkFailures()
		if s.barrierHook != nil {
			s.barrierHook()
		}
	}
}

// Blocked returns the names of parked processes across all shards
// (prefixed with their shard id). Non-empty after Run means deadlock.
func (s *Sharded) Blocked() []string {
	var out []string
	for _, sh := range s.shards {
		for _, name := range sh.K.Blocked() {
			out = append(out, fmt.Sprintf("shard%d/%s", sh.id, name))
		}
	}
	return out
}

// Release kills every shard kernel's pooled proc coroutines (see
// Kernel.Release).
func (s *Sharded) Release() {
	for _, sh := range s.shards {
		sh.K.Release()
	}
}

// Shutdown abandons an in-flight sharded simulation: every shard kernel
// is shut down (unfinished processes killed, pooled coroutines
// released) and undelivered mailbox messages are dropped.
func (s *Sharded) Shutdown() {
	for _, sh := range s.shards {
		sh.failure = nil
		sh.K.Shutdown()
		for d := range sh.out {
			clear(sh.out[d])
			sh.out[d] = sh.out[d][:0]
		}
	}
}
