package sim

import (
	"fmt"
	"math"
	"slices"
)

// This file implements the tile-sharded parallel event kernel: a
// conservative parallel-discrete-event-simulation (PDES) coordinator
// over per-shard Kernels.
//
// Each shard owns a full Kernel (queue, clock, proc/future pools) and is
// only ever touched by one goroutine at a time. Shards advance together
// through epochs derived from the lookahead — the minimum latency any
// cross-shard interaction is modeled with (for the täkō CMP, the minimum
// NoC hop latency; see hier.Lookahead). Within an epoch a shard may
// execute every event strictly before the epoch horizon without
// synchronizing, because any message another shard sends during the same
// epoch cannot arrive before the horizon. Cross-shard events travel
// through per-(sender,receiver) mailboxes that are drained at the epoch
// barrier in a canonical (arrival cycle, sender shard, sender sequence)
// order, so the merged schedule — and therefore every simulated outcome —
// is byte-identical regardless of worker count or real-time execution
// interleaving.
//
// The coordinator is deterministic by construction:
//
//   - a shard's epoch execution is a pure function of its own queue;
//   - mailbox contents depend only on that execution (per-sender send
//     order is stamped with a sender-local sequence);
//   - the drain sorts by a total key that no real-time ordering can
//     perturb, and receiver-side sequence numbers are assigned in that
//     canonical order.
//
// Run(workers) executes epochs on worker goroutines; RunSequenced is the
// single-threaded reference that executes the identical epoch schedule
// inline (shard 0 first, then 1, ...). Because shards are independent
// within an epoch, both produce the same simulation; the determinism
// battery (shard_test.go) pins that equivalence at widths 1/2/4/16 under
// the race detector.

// message is one cross-shard event in flight: exactly one of
// fn/proc/future is set, mirroring Kernel's event payloads.
type message struct {
	when   Cycle
	from   int
	seq    uint64 // sender-local send counter: total order per sender
	fn     func()
	proc   *Proc
	future *Future
}

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

	out     [][]message // outgoing mailbox per destination shard
	sendSeq uint64
	failure any // panic captured during an epoch; re-raised by the coordinator
}

// ID returns the shard's index.
func (sh *Shard) ID() int { return sh.id }

// Send schedules fn on shard to, delay cycles from this shard's current
// time. Cross-shard sends must respect the lookahead: delay <
// lookahead panics, because delivery happens at epoch barriers and a
// shorter delay could land inside the receiver's already-executed
// window (the classic conservative-PDES causality violation).
// Same-shard sends are ordinary local events with no minimum delay.
func (sh *Shard) Send(to int, delay Cycle, fn func()) {
	if to == sh.id {
		sh.K.After(delay, fn)
		return
	}
	sh.post(to, delay, message{fn: fn})
}

// SendWake schedules p — a process living on shard to — to be
// dispatched delay cycles from now. Lookahead rules are as in Send.
func (sh *Shard) SendWake(to int, delay Cycle, p *Proc) {
	if p.k != sh.s.shards[sh.s.shardIndex(to)].K {
		panic(fmt.Sprintf("sim: SendWake to shard %d for a proc of a different shard", to))
	}
	if to == sh.id {
		sh.K.wakeAfter(delay, p)
		return
	}
	sh.post(to, delay, message{proc: p})
}

// SendComplete schedules future f — owned by shard to — to complete
// delay cycles from now. Lookahead rules are as in Send.
func (sh *Shard) SendComplete(to int, delay Cycle, f *Future) {
	if f.k != sh.s.shards[sh.s.shardIndex(to)].K {
		panic(fmt.Sprintf("sim: SendComplete to shard %d for a future of a different shard", to))
	}
	if to == sh.id {
		sh.K.completeAt(sh.K.now+delay, f)
		return
	}
	sh.post(to, delay, message{future: f})
}

// post stamps and buffers one cross-shard message.
func (sh *Shard) post(to int, delay Cycle, m message) {
	if delay < sh.s.lookahead {
		panic(fmt.Sprintf(
			"sim: cross-shard send %d→%d with delay %d violates lookahead %d",
			sh.id, to, delay, sh.s.lookahead))
	}
	to = sh.s.shardIndex(to)
	m.when = sh.K.now + delay
	m.from = sh.id
	sh.sendSeq++
	m.seq = sh.sendSeq
	sh.out[to] = append(sh.out[to], m)
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

	// scratch is the reusable drain buffer (cleared after each use so
	// pooled messages don't pin closures).
	scratch []message

	// permute, when set (tests only), reorders the sender iteration of a
	// drain; the canonical sort must erase any such reordering, which
	// FuzzShardedDrainOrder pins.
	permute func(senders int) []int

	// barrierHook, when set, runs on the coordinator after every epoch
	// barrier, while no shard worker is executing. Model-level checkers
	// (hier.CheckInvariants) use it to inspect cross-shard state at the
	// only points where that state is quiescent and the inspection cannot
	// perturb the schedule.
	barrierHook func()
}

// NewSharded builds a sharded kernel with n shards and the given
// lookahead (the minimum cross-shard event latency, in cycles; ≥ 1).
func NewSharded(n int, lookahead Cycle) *Sharded {
	if n < 1 {
		panic("sim: sharded kernel needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: sharded kernel needs lookahead ≥ 1")
	}
	s := &Sharded{lookahead: lookahead}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, &Shard{
			s:   s,
			id:  i,
			K:   NewKernel(),
			out: make([][]message, n),
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

// runShardEpoch advances one shard to the (inclusive) epoch end,
// converting a panic on the shard — modeling bug, invariant violation,
// ProcPanic — into a stored failure the coordinator re-raises
// deterministically (lowest shard id first).
func (s *Sharded) runShardEpoch(id int, until Cycle) {
	sh := s.shards[id]
	defer func() {
		if r := recover(); r != nil {
			sh.failure = r
		}
	}()
	sh.K.RunUntil(until)
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

// deliver drains every mailbox into its destination queue in the
// canonical (arrival cycle, sender shard, sender sequence) order. The
// receiver assigns fresh local sequence numbers in that order, so the
// merged schedule is independent of both worker interleaving and the
// sender-iteration order (which the permute test hook deliberately
// scrambles).
func (s *Sharded) deliver() {
	n := len(s.shards)
	for dest := 0; dest < n; dest++ {
		buf := s.scratch[:0]
		if s.permute != nil {
			for _, src := range s.permute(n) {
				buf = s.collect(buf, src, dest)
			}
		} else {
			for src := 0; src < n; src++ {
				buf = s.collect(buf, src, dest)
			}
		}
		if len(buf) == 0 {
			continue
		}
		slices.SortFunc(buf, func(a, b message) int {
			if a.when != b.when {
				if a.when < b.when {
					return -1
				}
				return 1
			}
			if a.from != b.from {
				return a.from - b.from
			}
			// Per-sender sequences are unique, so the key is total.
			if a.seq < b.seq {
				return -1
			}
			return 1
		})
		k := s.shards[dest].K
		for i := range buf {
			m := &buf[i]
			switch {
			case m.proc != nil:
				k.wakeAt(m.when, m.proc)
			case m.future != nil:
				k.completeAt(m.when, m.future)
			default:
				k.At(m.when, m.fn)
			}
		}
		s.stats.Messages += uint64(len(buf))
		clear(buf) // don't pin closures/procs from the scratch buffer
		s.scratch = buf[:0]
	}
}

// collect appends shard src's mailbox for dest to buf and resets it,
// keeping the backing array pooled.
func (s *Sharded) collect(buf []message, src, dest int) []message {
	out := s.shards[src].out[dest]
	if len(out) == 0 {
		return buf
	}
	buf = append(buf, out...)
	clear(out)
	s.shards[src].out[dest] = out[:0]
	return buf
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

// Release retires every shard kernel's pooled worker goroutines (see
// Kernel.Release).
func (s *Sharded) Release() {
	for _, sh := range s.shards {
		sh.K.Release()
	}
}

// Shutdown abandons an in-flight sharded simulation: every shard kernel
// is shut down (parked processes unwound, pooled goroutines retired) and
// undelivered mailbox messages are dropped.
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
