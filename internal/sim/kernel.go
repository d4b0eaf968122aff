// Package sim provides a deterministic discrete-event simulation kernel
// and a blocking-process model on top of it.
//
// The kernel orders events by (time, insertion sequence), so two runs of
// the same program produce identical schedules. Simulated software
// threads (Proc) run as coroutines of the driver (the caller of Run or
// RunUntil), and only the driver runs events: when it pops a process's
// wake it resumes that process, which runs until it blocks or finishes
// and then suspends back to the driver. A process that blocks
// while its own wake is the next due event pops that wake and carries on
// in place, with no switch at all. Exactly one of the driver and its
// processes runs at a time, and which one pops an event never changes
// the order events run in, so schedules stay deterministic.
package sim

import "math"

// Cycle is a point in simulated time, measured in clock cycles.
type Cycle = uint64

// event is one queue entry. Exactly one of fn/proc/future is set: fn is
// an arbitrary scheduled callback, proc is a parked process to resume,
// future is a Future to complete. Carrying the target directly keeps the
// wake paths (Sleep, Future, Semaphore, WaitGroup, Barrier, CompleteAt)
// free of per-event closure allocations. start marks a proc event as the
// process's first dispatch (set by Go/GoArgs rather than a closure).
type event struct {
	when   Cycle
	seq    uint64
	fn     func()
	proc   *Proc
	future *Future
	start  bool
}

// Kernel is a deterministic discrete-event simulator clock and queue.
// The zero value is not usable; create kernels with NewKernel.
//
// Its state (queue, clock, pools) is touched by the driver and by the
// process it has resumed, in turn; each coroutine switch orders those
// accesses, so no locking is needed.
//
// The queue is a 4-ary min-heap stored flat in a slice. Compared to
// container/heap this is monomorphic (no interface{} boxing, so pushes
// don't allocate) and shallower (half the levels of a binary heap), and
// popping zeroes the vacated slot so completed events — and everything
// their closures captured — are collectable instead of pinned by the
// backing array.
type Kernel struct {
	now    Cycle
	seq    uint64
	queue  []event
	procs  []*Proc
	events uint64

	// waiterPool recycles Future waiter slices: futures are one-shot
	// and allocated in large numbers on memory-access hot paths, so
	// their waiter backing arrays are worth reusing.
	waiterPool [][]*Proc

	// freeProcs holds finished Procs whose coroutines are suspended
	// awaiting a next task: spawning recycles them (struct and coroutine)
	// instead of allocating. Release kills the idle coroutines.
	freeProcs []*Proc

	// futurePool recycles one-shot Futures on paths that guarantee no
	// references survive completion (DRAM transfers, lazy line-lock
	// futures). See GetFuture/RecycleFuture.
	futurePool []*Future

	// chooser, when set, resolves same-cycle scheduling ties (see
	// SetChooser); batch is its reusable scratch slice. nil on every
	// normal run — the default schedule pays nothing for the hook.
	chooser Chooser
	batch   []event

	// limit is the inclusive horizon of the current Run or RunUntil: only
	// events at or before it run, and a blocking process carries on in
	// place only for a wake at or before it.
	limit Cycle

	// failure holds the *ProcPanic of a process task that panicked, for
	// the driver to re-raise once the process has suspended.
	failure any
}

// A Chooser resolves scheduling ties. When the kernel is about to run an
// event and n ≥ 2 events share the minimum timestamp, it calls Choose(n)
// and runs the i-th of them (counting in insertion order) first; the
// remaining n-1 keep their relative order. Choose must return a value in
// [0, n) — out-of-range values fall back to 0, and a chooser that always
// returns 0 reproduces the kernel's default FIFO schedule exactly.
//
// Every schedule a Chooser can produce is a legal timing of the modeled
// hardware: same-cycle events represent concurrent components whose
// relative order the architecture does not define. The interleaving
// explorer uses this hook to search those orders for coherence races.
type Chooser interface {
	Choose(n int) int
}

// SetChooser installs (or, with nil, removes) a scheduling-tie chooser.
// Without one, same-cycle events run in insertion order.
func (k *Kernel) SetChooser(c Chooser) { k.chooser = c }

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated cycle.
func (k *Kernel) Now() Cycle { return k.now }

// Events returns the number of events executed so far.
func (k *Kernel) Events() uint64 { return k.events }

// At schedules fn to run at the given absolute cycle. Scheduling in the
// past panics: it indicates a modeling bug.
func (k *Kernel) At(when Cycle, fn func()) {
	if when < k.now {
		panic("sim: scheduling event in the past")
	}
	k.seq++
	k.push(event{when: when, seq: k.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (k *Kernel) After(delay Cycle, fn func()) {
	k.At(k.now+delay, fn)
}

// wakeAfter schedules p to be dispatched delay cycles from now, without
// allocating a closure.
func (k *Kernel) wakeAfter(delay Cycle, p *Proc) {
	k.seq++
	k.push(event{when: k.now + delay, seq: k.seq, proc: p})
}

// completeAt schedules f to complete at the given absolute cycle,
// without allocating a closure.
func (k *Kernel) completeAt(when Cycle, f *Future) {
	if when < k.now {
		panic("sim: scheduling event in the past")
	}
	k.seq++
	k.push(event{when: when, seq: k.seq, future: f})
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() { k.drive(math.MaxUint64) }

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (k *Kernel) RunUntil(t Cycle) {
	k.drive(t)
	if k.now < t {
		k.now = t
	}
}

// drive is the event loop. It runs due events (time ≤ limit) in order
// on the caller's stack. A popped process wake resumes that process until
// it suspends; a panic its task raised is re-raised here.
func (k *Kernel) drive(limit Cycle) {
	k.limit = limit
	for len(k.queue) > 0 && k.queue[0].when <= limit {
		var e event
		if k.chooser == nil {
			e = k.pop()
		} else {
			e = k.take()
		}
		k.now = e.when
		k.events++
		switch {
		case e.proc != nil:
			if e.start {
				e.proc.started = true
			}
			if !e.proc.done {
				e.proc.run()
				if r := k.failure; r != nil {
					k.failure = nil
					panic(r)
				}
			}
		case e.future != nil:
			e.future.Complete()
			// Pool-originated futures completed by their scheduled event
			// have no remaining references (waiters were converted to
			// proc wakes); recycle immediately.
			k.RecycleFuture(e.future)
		default:
			e.fn()
		}
	}
}

// popOwnWake pops the next event when it is a due wake of p, which is
// blocking, and reports whether it did: p then carries on in place with
// no switch, exactly as if the driver had popped the wake and resumed
// it. It never applies with a chooser installed, so that the driver's
// take consults the chooser for every event.
func (k *Kernel) popOwnWake(p *Proc) bool {
	if k.chooser != nil || len(k.queue) == 0 {
		return false
	}
	if e := &k.queue[0]; e.proc != p || e.when > k.limit {
		return false
	}
	k.now = k.pop().when
	k.events++
	return true
}

// take is the event loop's pop with a chooser installed: it pops every
// event tied at the minimum time (in insertion order), lets the chooser
// pick which one runs, and reinserts the rest. Reinserted events keep
// their original sequence numbers, so the unchosen events' relative
// order — and hence the meaning of future choices — is unchanged by the
// pick.
func (k *Kernel) take() event {
	b := append(k.batch[:0], k.pop())
	for len(k.queue) > 0 && k.queue[0].when == b[0].when {
		b = append(b, k.pop())
	}
	idx := 0
	if len(b) > 1 {
		if c := k.chooser.Choose(len(b)); c > 0 && c < len(b) {
			idx = c
		}
	}
	e := b[idx]
	for i := range b {
		if i != idx {
			k.push(b[i])
		}
	}
	clear(b) // don't pin closures from the scratch slice
	k.batch = b[:0]
	return e
}

// Blocked returns the names of processes that are parked (waiting) right
// now. After Run returns, a non-empty result means those processes are
// deadlocked: no event will ever wake them.
func (k *Kernel) Blocked() []string {
	var out []string
	for _, p := range k.procs {
		if !p.done && p.started {
			out = append(out, p.name)
		}
	}
	return out
}

// before orders events by (time, insertion sequence).
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// push inserts e into the queue, sifting it up from the tail.
func (k *Kernel) push(e event) {
	q := append(k.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	k.queue = q
}

// pop removes and returns the queue's minimum event, zeroing the vacated
// tail slot so the popped event's closure (and captured state) is
// GC-able.
func (k *Kernel) pop() event {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	k.queue = q

	// Sift the relocated tail element down: swap with the smallest of
	// up to four children until in place.
	i := 0
	for {
		min := i
		first := i<<2 + 1
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return top
}

// getWaiters returns an empty waiter slice, reusing a pooled backing
// array when one is available.
func (k *Kernel) getWaiters() []*Proc {
	if n := len(k.waiterPool); n > 0 {
		s := k.waiterPool[n-1]
		k.waiterPool[n-1] = nil
		k.waiterPool = k.waiterPool[:n-1]
		return s
	}
	return make([]*Proc, 0, 4)
}

// putWaiters returns a drained waiter slice to the pool. Entries are
// cleared so pooled arrays don't pin processes.
func (k *Kernel) putWaiters(s []*Proc) {
	if cap(s) == 0 || len(k.waiterPool) >= 64 {
		return
	}
	clear(s[:cap(s)])
	k.waiterPool = append(k.waiterPool, s[:0])
}

// GetFuture returns an incomplete future from the kernel's pool,
// allocating only when the pool is empty. Pool-originated futures are
// recycled automatically when completed by a CompleteAt event, or
// explicitly via RecycleFuture; callers must guarantee no reference to
// the future survives its completion. Futures that escape to unknown
// holders must use NewFuture instead.
func (k *Kernel) GetFuture() *Future {
	if n := len(k.futurePool); n > 0 {
		f := k.futurePool[n-1]
		k.futurePool[n-1] = nil
		k.futurePool = k.futurePool[:n-1]
		return f
	}
	return &Future{k: k, pooled: true}
}

// RecycleFuture returns a completed pool-originated future for reuse. It
// is a no-op for futures from NewFuture (or nil), so wake paths can call
// it unconditionally. Recycling an incomplete future panics: it would
// let two owners race on one object.
func (k *Kernel) RecycleFuture(f *Future) {
	if f == nil || !f.pooled {
		return
	}
	if !f.done {
		panic("sim: recycling incomplete future")
	}
	f.done = false
	f.when = 0
	if len(k.futurePool) < 64 {
		k.futurePool = append(k.futurePool, f)
	}
}

// Release kills the pooled coroutines of finished processes. The kernel
// stays fully usable — subsequent Go calls simply allocate fresh
// processes — so callers (simulation drivers, benchmarks) should invoke
// it when a run completes to avoid accumulating parked goroutines across
// many kernels in one process.
func (k *Kernel) Release() {
	for i, p := range k.freeProcs {
		p.kill()
		k.freeProcs[i] = nil
	}
	k.freeProcs = k.freeProcs[:0]
}

// Shutdown abandons an in-flight simulation: every unfinished process is
// killed without running any event (a parked one unwinds its task, one
// never started never runs), and pooled coroutines are released, so a
// driver that recovered a panic from Run or RunUntil can discard the
// kernel without leaking the goroutines of processes still blocked
// mid-simulation. The kernel must not be run again after Shutdown.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if !p.done {
			p.kill()
		}
	}
	k.failure = nil
	k.Release()
}
