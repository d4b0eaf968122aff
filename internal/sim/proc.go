package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated software thread. Each Proc runs as a coroutine
// that the kernel's driver resumes when it pops the Proc's event: its
// start, which marks it started as its coroutine first runs the task, or
// a wake. A Proc that Enter starts has no start event: the event that
// calls Enter runs it until it first blocks. A Proc that issued Tasks
// and parked (Park) has no wake event either: the event of the Task that
// ends its work resumes it in place (Resume). When a Proc blocks (Sleep,
// Wait, Park and the sync primitives) it runs its own events in place,
// its wake or a Task it issued, for as long as one is the next due
// event; otherwise, and when its task returns, it yields and control
// goes back to the driver. No other event runs on a Proc's coroutine.
//
// Finished Procs are pooled: their coroutines stay suspended and the next
// Go reuses the whole structure (struct and coroutine) instead of
// allocating. This is safe because every park has exactly one wake
// scheduled (Sleep, Future completion, Semaphore handoff, WaitGroup
// drain, Barrier release), so no stale wake event can ever target a
// recycled Proc. Kernel.Release kills idle pooled coroutines when a run
// is over.
//
// All Proc methods must be called from the Proc's own coroutine (i.e.,
// inside the function passed to Kernel.Go), except Done.
type Proc struct {
	k       *Kernel
	name    string
	started bool
	done    bool
	woken   bool // resumed by an event it ran in place; Park returns

	// The coroutine's three calls (coro.go), which on Go 1.23 and later
	// are iter.Pull's own: the driver's next resumes the coroutine until
	// it yields and its stop ends it; yield, called on the coroutine,
	// hands control back to the driver.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// fn is the task, set while the proc runs. It lives on the Proc so a
	// pooled coroutine picks up its next task without a per-spawn
	// closure.
	fn func(*Proc)
}

// Go creates a simulated process named name running fn, and schedules it
// to start at the current cycle. fn runs on the process's own coroutine;
// it holds the simulation only while computing between blocking calls.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.spawn(name)
	p.fn = fn
	k.push(k.now, p)
	return p
}

// Enter creates a simulated process named name running fn and starts it
// in place: fn runs on the process's coroutine at once, until it first
// blocks or returns, and Enter returns then. It is Go without the start
// event, for a chain of continuations that needs a stack for one part of
// its work: the process takes over in the continuation's own event,
// where Go would queue its start behind the events already due. A panic
// in fn reaches the caller of Run as a *ProcPanic, as from a process Go
// started. Enter must be called from an event (a continuation the
// driver runs), not from a process: it panics there.
func (k *Kernel) Enter(name string, fn func(p *Proc)) *Proc {
	if q := k.running; q != nil {
		panic(fmt.Sprintf("sim: Enter(%q) called from proc %q; call it from an event (Kernel.After, Future.Then), or use Go", name, q.name))
	}
	p := k.spawn(name)
	p.fn = fn
	k.resume(p)
	return p
}

// spawn returns a ready-to-start Proc, recycling a pooled one when
// available. Recycled procs are already in k.procs; fresh ones are
// appended with a new coroutine.
func (k *Kernel) spawn(name string) *Proc {
	if n := len(k.freeProcs); n > 0 {
		p := k.freeProcs[n-1]
		k.freeProcs[n-1] = nil
		k.freeProcs = k.freeProcs[:n-1]
		p.name = name
		p.started, p.done = false, false
		return p
	}
	p := &Proc{k: k, name: name}
	p.next, p.stop = k.coro(p.body)
	k.procs = append(k.procs, p)
	return p
}

// body is the coroutine body: run a task, return to the free list, and
// yield until a spawn recycles this proc and the driver starts it. It
// returns once stopped.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.started = true
		p.runTask()
		p.fn = nil
		p.done = true
		p.k.freeProcs = append(p.k.freeProcs, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// ProcPanic wraps a panic raised by a Proc's task. The Proc's coroutine
// captures it, so the Proc finishes and pools like any other, and the
// driver (the caller of Run or RunUntil) re-raises the wrapped value,
// where tests and the interleaving explorer can recover it. The
// panicking coroutine's stack is preserved for crash reports.
type ProcPanic struct {
	Proc  string // name of the panicking process
	Value any    // the original panic value
	Stack []byte // stack of the panicking goroutine at capture
}

func (e *ProcPanic) Error() string {
	return fmt.Sprintf("panic in proc %q: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// procAbort is the sentinel Park throws when Kernel.Shutdown kills a
// parked proc, to unwind its task; runTask swallows it.
type procAbort struct{}

// runTask runs the proc's task, converting an escaping panic into a
// captured ProcPanic for the driver to re-raise.
func (p *Proc) runTask() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procAbort); ok {
				return
			}
			p.k.failure = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
	}()
	p.fn(p)
}

// Park blocks the process until an event resumes it: its wake, which
// Sleep, Wait and the sync primitives queue before they park, or, for
// work it issued as Tasks (whose Issuer is p), the event that ends that
// work, which calls Resume. While its own event is the next due, it runs
// that event in place, and returns once one resumed it; otherwise it
// yields until an event resumes it. A Resume that came before Park, from
// the process's own run, makes Park return at once.
func (p *Proc) Park() {
	for !p.woken {
		t := p.k.popOwn(p)
		if t == nil {
			if !p.yield(struct{}{}) {
				panic(procAbort{})
			}
			return
		}
		t.Resume()
	}
	p.woken = false
}

// Resume resumes p, blocked, from the event that wakes it: p carries on
// at once, in place, until it blocks again or finishes, as Enter starts
// a process, and Resume returns then. When p itself runs that event, in
// place while it blocks, or before it parks, p carries on once the event
// returns. Resume must be called from an event or from p; from another
// process it panics.
func (p *Proc) Resume() {
	switch k := p.k; k.running {
	case p:
		p.woken = true
	case nil:
		if !p.done {
			k.resume(p)
		}
	default:
		panic(fmt.Sprintf("sim: proc %q resumed from proc %q; resume a proc from an event or from itself", p.name, k.running.name))
	}
}

// Issuer makes a Proc a Task: a process's wake is its own event.
func (p *Proc) Issuer() *Proc { return p }

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated cycle.
func (p *Proc) Now() Cycle { return p.k.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep advances the process by d cycles of simulated time.
func (p *Proc) Sleep(d Cycle) {
	p.k.AfterTask(d, p)
	p.Park()
}

// Wait blocks the process until f completes. If f is already complete it
// returns immediately without advancing time.
func (p *Proc) Wait(f *Future) {
	if f.done {
		return
	}
	f.addWaiter(p)
	p.Park()
}

// Then queues t to resume when f completes, at the cycle and in the
// place among f's waiters that a process waiting instead would wake at:
// it is the Task form of Wait. f must not be complete yet; a caller
// that finds it complete carries on at once, as Wait returns at once.
func (f *Future) Then(t Task) {
	if f.done {
		panic("sim: Then on a completed future")
	}
	f.k.parked++
	f.addWaiter(t)
}

// addWaiter appends w, a *Proc or a Task, to f's waiters.
func (f *Future) addWaiter(w Task) {
	if f.waiters == nil {
		f.waiters = f.k.getWaiters()
	}
	f.waiters = append(f.waiters, w)
}

// Future is a one-shot completion signal that processes can Wait on and
// Tasks can wait on with Then.
type Future struct {
	k       *Kernel
	done    bool
	pooled  bool // from Kernel.GetFuture: recyclable once complete
	when    Cycle
	waiters []Task // each a *Proc or a Task
}

// NewFuture returns an incomplete future on kernel k.
func NewFuture(k *Kernel) *Future {
	return &Future{k: k}
}

// Complete marks the future done at the current cycle and wakes all
// waiters (in registration order, at the current cycle). Completing twice
// panics.
func (f *Future) Complete() {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.when = f.k.now
	for _, w := range f.waiters {
		f.k.wake(w)
	}
	f.k.putWaiters(f.waiters)
	f.waiters = nil
}

// CompleteAt schedules the future to complete at absolute cycle t,
// without allocating: its event's Task is the future itself.
func (f *Future) CompleteAt(t Cycle) {
	if t < f.k.now {
		panic("sim: scheduling event in the past")
	}
	f.k.push(t, (*completion)(f))
}

// completion is a *Future that CompleteAt scheduled, as a Task: its event
// completes the future and recycles it if it came from the pool, since
// its waiters were converted to wakes and nothing else holds it.
type completion Future

func (c *completion) Resume() {
	f := (*Future)(c)
	f.Complete()
	f.k.RecycleFuture(f)
}

func (*completion) Issuer() *Proc { return nil }

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// When returns the cycle at which the future completed; valid only if
// Done.
func (f *Future) When() Cycle { return f.when }

// CompletedFuture returns an already-completed future, useful for
// zero-latency fast paths.
func CompletedFuture(k *Kernel) *Future {
	return &Future{k: k, done: true, when: k.now}
}
