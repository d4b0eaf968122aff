// Package sim provides a deterministic discrete-event simulation kernel
// and a blocking-process model on top of it.
//
// The kernel orders events by (time, insertion sequence), so two runs of
// the same program produce identical schedules. Simulated software
// threads (Proc) run as coroutines of the driver (the caller of Run or
// RunUntil). The driver runs events: when it pops a process's wake it
// resumes that process, which runs until it blocks or finishes and then
// suspends back to the driver. Activity that no thread runs, or that a
// blocked thread waits on, runs as Tasks: continuations that
// Kernel.AfterTask, Future.Then and Semaphore.AcquireThen queue exactly
// where a process waiting in their place would have its wake queued, so
// they keep a process's schedule with no coroutine. A Task names the
// process blocked on it (Issuer), if any, and the event in which that
// work ends resumes the process in place (Proc.Resume), as Enter starts
// one from a continuation.
//
// One rule covers running in place: a blocked process whose own event,
// its wake or a Task it issued, is the next due runs that event itself,
// on its own coroutine, with no switch at all; it never does so with a
// Chooser installed. Exactly one of the driver and its processes runs at
// a time, and which one pops an event never changes the order events run
// in, so schedules stay deterministic.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, measured in clock cycles.
type Cycle = uint64

// The timing wheel has one slot per cycle for the wheelSlots cycles
// from now on, and one occupancy bit per slot in wheelWords words.
const (
	wheelSlots = 1024
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// node is one wheel entry. Its target is the Task the event resumes: a
// *Proc (its start or a wake; the proc marks itself started when its
// coroutine first runs), a continuation, a *Future to complete
// (completion) or an At callback (callback). Carrying the proc, task or
// future itself keeps the wake paths (Sleep, Future, Semaphore,
// WaitGroup, Barrier, CompleteAt) free of per-event closures, and every
// target is pointer-shaped, so storing one allocates nothing. next links
// the node into its slot's FIFO, or into the free list once it has run;
// it indexes Kernel.nodes, whose entry 0 is never used, so 0 ends a list.
type node struct {
	target Task
	next   int32
}

// slot is one cycle's FIFO of nodes, first and last; 0 when empty.
type slot struct{ head, tail int32 }

// event is an entry of the far heap, which holds the events wheelSlots
// or more cycles out; seq orders the events of one cycle by push.
type event struct {
	when   Cycle
	seq    uint64
	target Task
}

// Kernel is a deterministic discrete-event simulator clock and queue.
// The zero value is not usable; create kernels with NewKernel.
//
// Its state (queue, clock, pools) is touched by the driver and by the
// process it has resumed, in turn; each coroutine switch orders those
// accesses, so no locking is needed.
//
// The queue is a timing wheel: the calendar queue of Brown (CACM 1988)
// with one-cycle days. Slot c mod 1024 holds the events due at cycle c,
// for every c in [now, now+1024), in push order, and a 16-word bitmap
// marks the occupied slots, so a push appends to a list and finding the
// next event scans at most 16 words. Events 1024 or more cycles out
// wait in a 4-ary min-heap ordered by (cycle, seq) and move into the
// wheel, in that order, each time the clock advances (advance), before
// anything can be pushed at the new cycle. A far event's cycle was 1024
// or more cycles out when it was pushed, and a direct push to that
// cycle can only come later, so every slot's FIFO is exactly the
// (cycle, insertion) order. Slots link the nodes of one arena, which
// recycles them through a free list, so steady-state pushes do not
// allocate; a freed node and a vacated heap entry drop their target, so
// a run event's closure and what it captured are collectable.
type Kernel struct {
	now    Cycle
	events uint64

	occ   [wheelWords]uint64 // bit s%64 of word s/64: slots[s] is occupied
	nodes []node
	free  int32 // head of the free list of nodes; 0 when none is free

	// far is the heap of events wheelSlots or more cycles out; seq
	// numbers its pushes.
	far []event
	seq uint64

	procs []*Proc

	// parked counts the Tasks queued on a Future (Then) or a Semaphore
	// (AcquireThen) that have not been woken; Blocked reports them, as it
	// reports parked processes.
	parked int

	// waiterPool recycles Future waiter slices: futures are one-shot
	// and allocated in large numbers on memory-access hot paths, so
	// their waiter backing arrays are worth reusing. Like futurePool
	// and freeProcs it is uncapped, so it holds at most as many as
	// were ever in use at once.
	waiterPool [][]Task

	// freeProcs holds finished Procs whose coroutines are suspended
	// awaiting a next task: spawning recycles them (struct and coroutine)
	// instead of allocating. Release kills the idle coroutines.
	freeProcs []*Proc

	// futurePool recycles one-shot Futures on paths that guarantee no
	// references survive completion (DRAM transfers, lazy line-lock
	// futures). See GetFuture/RecycleFuture.
	futurePool []*Future

	// chooser, when set, resolves same-cycle scheduling ties (see
	// SetChooser). nil on every normal run — the default schedule pays
	// nothing for the hook.
	chooser Chooser

	// limit is the inclusive horizon of the current Run or RunUntil: only
	// events at or before it run, in place or not.
	limit Cycle

	// failure holds the *ProcPanic of a process task that panicked, for
	// the driver to re-raise once the process has suspended.
	failure any

	// running is the process the driver has resumed, nil while the
	// driver itself runs; Enter refuses to start a process from one, and
	// Proc.Resume tells a process running its own event in place from
	// one that waits for an event to resume it.
	running *Proc

	// coro makes each new process's coroutine: newCoro, unless a test
	// runs the channel implementation on a newer toolchain.
	coro func(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func())

	// slots[c%wheelSlots] is the FIFO of the events due at cycle c.
	slots [wheelSlots]slot
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
func NewKernel() *Kernel { return &Kernel{nodes: make([]node, 1, 32), coro: newCoro} }

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
	k.push(when, callback(fn))
}

// callback is an At or After function as a Task. A func value is
// pointer-shaped, so the conversion allocates nothing.
type callback func()

func (fn callback) Resume()    { fn() }
func (callback) Issuer() *Proc { return nil }

// After schedules fn to run delay cycles from now.
func (k *Kernel) After(delay Cycle, fn func()) {
	k.At(k.now+delay, fn)
}

// A Task is a continuation the kernel can compare: Resume runs its next
// step, and Issuer names the process blocked until the work it belongs
// to ends, or nil when no process waits on it. A blocked process runs
// its own Tasks in place when they are due next (see the package
// comment). A Proc is a Task too: its Resume is its wake.
type Task interface {
	Resume()
	Issuer() *Proc
}

// AfterTask schedules t to resume delay cycles from now. It is the timed
// continuation: t lands exactly where the wake of a process calling
// Sleep(delay) instead would, so work that a chain of Tasks does
// (AfterTask, Future.Then, Semaphore.AcquireThen) keeps the schedule a
// process would have.
func (k *Kernel) AfterTask(delay Cycle, t Task) {
	k.push(k.now+delay, t)
}

// wake queues a woken waiter, a *Proc or a Task that Then or
// AcquireThen parked, at the current cycle.
func (k *Kernel) wake(w Task) {
	if _, ok := w.(*Proc); !ok {
		k.parked--
	}
	k.push(k.now, w)
}

// Run executes events until the queue is empty.
func (k *Kernel) Run() { k.drive(math.MaxUint64) }

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (k *Kernel) RunUntil(t Cycle) {
	k.drive(t)
	if k.now < t {
		k.advance(t)
	}
}

// drive is the event loop. It runs due events (time ≤ limit) in order
// on the caller's stack, each from its wheel slot, by resuming its Task.
// A process's event resumes that process until it suspends, and so does
// a Task's event that ends the work the process waits on; a panic its
// task raised is re-raised here.
func (k *Kernel) drive(limit Cycle) {
	k.limit = limit
	for {
		when, ok := k.peek()
		if !ok || when > limit {
			return
		}
		if when != k.now {
			k.advance(when)
		}
		s := int(when & wheelMask)
		var target Task
		if k.chooser == nil {
			target = k.pop(s)
		} else {
			target = k.take(s)
		}
		k.events++
		target.Resume()
	}
}

// resume runs p on its coroutine until it blocks or finishes, and
// re-raises the panic its task raised, if any.
func (k *Kernel) resume(p *Proc) {
	k.running = p
	p.next()
	k.running = nil
	if r := k.failure; r != nil {
		k.failure = nil
		panic(r)
	}
}

// popOwn pops the next event when it is due and is p's own, a wake of p
// or a Task whose Issuer is p, and returns it; p, which is parking, then
// runs it in place, exactly as if the driver had popped it. It
// returns nil, popping nothing, with a chooser installed, so that the
// driver's take consults the chooser for every event, and for an event
// still in the far heap, which the driver moves into the wheel first.
func (k *Kernel) popOwn(p *Proc) Task {
	if k.chooser != nil {
		return nil
	}
	when, ok := k.peek()
	if !ok || when > k.limit {
		return nil
	}
	s := int(when & wheelMask)
	// An empty slot's head is node 0, whose target is always nil.
	t := k.nodes[k.slots[s].head].target
	if t == nil || t.Issuer() != p {
		return nil
	}
	if when != k.now {
		k.advance(when)
	}
	k.pop(s)
	k.events++
	return t
}

// Blocked returns the names of processes that are parked (waiting) right
// now, and one more entry counting the Tasks queued on a future or a
// semaphore, if any are. After Run returns, a non-empty result means
// those processes and Tasks are deadlocked: no event will ever wake
// them.
func (k *Kernel) Blocked() []string {
	var out []string
	for _, p := range k.procs {
		if !p.done && p.started {
			out = append(out, p.name)
		}
	}
	if k.parked > 0 {
		out = append(out, fmt.Sprintf("waiting continuations: %d", k.parked))
	}
	return out
}

// push queues target to run at cycle when, which is not in the past:
// at the tail of its wheel slot, or in the far heap when it is wheelSlots
// or more cycles out.
func (k *Kernel) push(when Cycle, target Task) {
	if when-k.now >= wheelSlots {
		k.seq++
		k.pushFar(event{when: when, seq: k.seq, target: target})
		return
	}
	k.link(int(when&wheelMask), target)
}

// link appends target to slot s's FIFO, taking a node from the free
// list or, when it is empty, growing the arena.
func (k *Kernel) link(s int, target Task) {
	i := k.free
	if i != 0 {
		k.free = k.nodes[i].next
	} else {
		i = int32(len(k.nodes))
		k.nodes = append(k.nodes, node{})
	}
	n := &k.nodes[i]
	n.target, n.next = target, 0
	sl := &k.slots[s]
	if sl.tail == 0 {
		sl.head = i
		k.occ[s>>6] |= 1 << (s & 63)
	} else {
		k.nodes[sl.tail].next = i
	}
	sl.tail = i
}

// pop unlinks the first node of slot s, which is occupied, frees it and
// returns its target.
func (k *Kernel) pop(s int) Task {
	sl := &k.slots[s]
	i := sl.head
	if sl.head = k.nodes[i].next; sl.head == 0 {
		sl.tail = 0
		k.occ[s>>6] &^= 1 << (s & 63)
	}
	return k.release(i)
}

// take is the event loop's pop with a chooser installed. When n ≥ 2
// events share slot s's cycle, it asks the chooser which of them, in
// insertion order, runs, and unlinks that one in place: the others keep
// their order ahead of anything pushed later, so the meaning of later
// choices does not change.
func (k *Kernel) take(s int) Task {
	head := k.slots[s].head
	n := 0
	for i := head; i != 0; i = k.nodes[i].next {
		n++
	}
	c := 0
	if n > 1 {
		c = k.chooser.Choose(n)
	}
	if c <= 0 || c >= n {
		return k.pop(s)
	}
	prev := head
	for ; c > 1; c-- {
		prev = k.nodes[prev].next
	}
	i := k.nodes[prev].next
	k.nodes[prev].next = k.nodes[i].next
	if k.slots[s].tail == i {
		k.slots[s].tail = prev
	}
	return k.release(i)
}

// release returns unlinked node i to the free list, dropping and
// returning its target.
func (k *Kernel) release(i int32) Task {
	n := &k.nodes[i]
	target := n.target
	n.target, n.next = nil, k.free
	k.free = i
	return target
}

// peek returns the cycle of the earliest queued event, and false when
// none is queued. Every wheel event precedes every far one.
func (k *Kernel) peek() (Cycle, bool) {
	base := int(k.now & wheelMask)
	w := base >> 6
	if b := k.occ[w] >> (base & 63); b != 0 {
		return k.now + Cycle(bits.TrailingZeros64(b)), true
	}
	for i := 1; i <= wheelWords; i++ {
		// The last word checked is w again, for the slots below base,
		// which hold the cycles furthest out.
		j := (w + i) & (wheelWords - 1)
		if b := k.occ[j]; b != 0 {
			s := j<<6 | bits.TrailingZeros64(b)
			return k.now + Cycle((s-base)&wheelMask), true
		}
	}
	if len(k.far) > 0 {
		return k.far[0].when, true
	}
	return 0, false
}

// advance moves the clock forward to t and moves every far event that t
// brings within wheelSlots cycles into the tail of its slot, in
// (cycle, seq) order. Every clock change goes through here, so no event
// can be pushed at t before they move, and far events never fall below
// now+wheelSlots.
func (k *Kernel) advance(t Cycle) {
	k.now = t
	for len(k.far) > 0 && k.far[0].when-t < wheelSlots {
		e := k.popFar()
		k.link(int(e.when&wheelMask), e.target)
	}
}

// before orders far events by (time, insertion sequence).
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// pushFar inserts e into the far heap, sifting it up from the tail.
func (k *Kernel) pushFar(e event) {
	q := append(k.far, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	k.far = q
}

// popFar removes and returns the far heap's minimum event, zeroing the
// vacated tail entry so the backing array pins no target.
func (k *Kernel) popFar() event {
	q := k.far
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	k.far = q

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
func (k *Kernel) getWaiters() []Task {
	if n := len(k.waiterPool); n > 0 {
		s := k.waiterPool[n-1]
		k.waiterPool[n-1] = nil
		k.waiterPool = k.waiterPool[:n-1]
		return s
	}
	return make([]Task, 0, 4)
}

// putWaiters returns a drained waiter slice to the pool. Entries are
// cleared so pooled arrays don't pin processes.
func (k *Kernel) putWaiters(s []Task) {
	if cap(s) == 0 {
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
	k.futurePool = append(k.futurePool, f)
}

// Release kills the pooled coroutines of finished processes. The kernel
// stays fully usable — subsequent Go calls simply allocate fresh
// processes — so callers (simulation drivers, benchmarks) should invoke
// it when a run completes to avoid accumulating parked goroutines across
// many kernels in one process.
func (k *Kernel) Release() {
	for i, p := range k.freeProcs {
		p.stop()
		k.freeProcs[i] = nil
	}
	k.freeProcs = k.freeProcs[:0]
}

// Shutdown abandons an in-flight simulation: every unfinished process is
// killed without running any event (a parked one unwinds its task, one
// never started never runs), waiting Tasks are dropped, and
// pooled coroutines are released, so a driver that recovered a panic
// from Run or RunUntil can discard the kernel without leaking the
// goroutines of processes still blocked mid-simulation. The kernel must
// not be run again after Shutdown.
func (k *Kernel) Shutdown() {
	for _, p := range k.procs {
		if !p.done {
			p.stop()
		}
	}
	k.parked = 0
	k.failure = nil
	k.Release()
}
