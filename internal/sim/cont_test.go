package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// An equivalence program is a few actors, each a list of ops on shared
// futures and semaphores. It runs once with every actor a Proc and once
// with every actor a chain of continuations.
type eqOpKind int

const (
	eqSleep    eqOpKind = iota // sleep d cycles
	eqWait                     // wait for future i
	eqAcquire                  // take a slot of semaphore i, hold it d cycles, release it
	eqComplete                 // complete future i, unless it is complete
)

type eqOp struct {
	kind eqOpKind
	d    Cycle
	i    int
}

type eqProgram struct {
	timed  []Cycle // future i completes at timed[i]; the rest by eqComplete
	manual int     // futures completed by eqComplete
	sems   []int   // semaphore capacities
	actors [][]eqOp
}

// eqStep is one logged step: an actor finished its op pc at cycle at.
type eqStep struct {
	actor, pc int
	at        Cycle
}

func randomEqProgram(rng *rand.Rand) eqProgram {
	delay := func() Cycle {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return 1
		case 2:
			return Cycle(rng.Intn(16))
		case 3:
			return Cycle(rng.Intn(wheelSlots))
		}
		return wheelSlots + Cycle(rng.Intn(2*wheelSlots))
	}
	var p eqProgram
	for i := rng.Intn(4); i > 0; i-- {
		p.timed = append(p.timed, delay())
	}
	p.manual = rng.Intn(3)
	for i := 1 + rng.Intn(2); i > 0; i-- {
		p.sems = append(p.sems, 1+rng.Intn(2))
	}
	futures := len(p.timed) + p.manual
	for a := 2 + rng.Intn(4); a > 0; a-- {
		var ops []eqOp
		for n := 1 + rng.Intn(12); n > 0; n-- {
			o := eqOp{kind: eqOpKind(rng.Intn(4)), d: delay()}
			switch o.kind {
			case eqWait, eqComplete:
				if futures == 0 {
					o.kind = eqSleep
				} else if o.i = rng.Intn(futures); o.kind == eqComplete && o.i < len(p.timed) {
					o.kind = eqWait // timed futures complete only at their time
				}
			case eqAcquire:
				o.i = rng.Intn(len(p.sems))
			}
			ops = append(ops, o)
		}
		p.actors = append(p.actors, ops)
	}
	return p
}

// eqChooser picks ties at random from a seed and records each n it saw.
type eqChooser struct {
	rng  *rand.Rand
	seen []int
}

func (c *eqChooser) Choose(n int) int {
	c.seen = append(c.seen, n)
	return c.rng.Intn(n)
}

// eqActor runs one actor's ops from pc up to end as a chain of Tasks:
// pc is the op, phase the position within it. With enter set, it runs
// only the ops before cut, and then enters a proc in place for the rest.
// With an issuer, the proc parked on the chain, it resumes that proc
// when it reaches end.
type eqActor struct {
	k      *Kernel
	id     int
	ops    []eqOp
	pc     int
	end    int
	phase  int
	futs   []*Future
	sems   []*Semaphore
	log    *[]eqStep
	enter  bool
	cut    int
	issuer *Proc
}

func (a *eqActor) Resume()       { a.run() }
func (a *eqActor) Issuer() *Proc { return a.issuer }

func (a *eqActor) run() {
	for {
		if a.enter && a.pc == a.cut {
			a.k.Enter("actor", func(p *Proc) { runOps(p, a.id, a.ops, a.cut, len(a.ops), a.futs, a.sems, a.log) })
			return
		}
		if a.pc == a.end {
			if a.issuer != nil {
				a.issuer.Resume()
			}
			return
		}
		o := a.ops[a.pc]
		switch o.kind {
		case eqSleep:
			if a.phase == 0 {
				a.phase = 1
				a.k.AfterTask(o.d, a)
				return
			}
		case eqWait:
			if f := a.futs[o.i]; a.phase == 0 && !f.Done() {
				a.phase = 1
				f.Then(a)
				return
			}
		case eqAcquire:
			switch a.phase {
			case 0:
				a.phase = 1
				if !a.sems[o.i].AcquireThen(a) {
					return
				}
				fallthrough
			case 1:
				a.phase = 2
				a.k.AfterTask(o.d, a)
				return
			case 2:
				a.sems[o.i].Release()
			}
		case eqComplete:
			if f := a.futs[o.i]; !f.Done() {
				f.Complete()
			}
		}
		*a.log = append(*a.log, eqStep{a.id, a.pc, a.k.Now()})
		a.pc, a.phase = a.pc+1, 0
	}
}

// state makes the program's futures, the timed ones scheduled to
// complete, and its semaphores on k.
func (prog eqProgram) state(k *Kernel) ([]*Future, []*Semaphore) {
	futs := make([]*Future, len(prog.timed)+prog.manual)
	for i := range futs {
		futs[i] = NewFuture(k)
		if i < len(prog.timed) {
			futs[i].CompleteAt(prog.timed[i])
		}
	}
	sems := make([]*Semaphore, len(prog.sems))
	for i, n := range prog.sems {
		sems[i] = NewSemaphore(k, n)
	}
	return futs, sems
}

// runOps runs ops[from:to] of actor id on p, logging each step.
func runOps(p *Proc, id int, ops []eqOp, from, to int, futs []*Future, sems []*Semaphore, log *[]eqStep) {
	for pc := from; pc < to; pc++ {
		switch o := ops[pc]; o.kind {
		case eqSleep:
			p.Sleep(o.d)
		case eqWait:
			p.Wait(futs[o.i])
		case eqAcquire:
			sems[o.i].Acquire(p)
			p.Sleep(o.d)
			sems[o.i].Release()
		case eqComplete:
			if f := futs[o.i]; !f.Done() {
				f.Complete()
			}
		}
		*log = append(*log, eqStep{id, pc, p.Now()})
	}
}

// run executes the program and returns its step log, the kernel's event
// count, the chooser's tie sizes (nil without one) and how many actors
// are still blocked at the end.
func (prog eqProgram) run(continuations bool, chooser *eqChooser) ([]eqStep, uint64, []int, int) {
	k := NewKernel()
	if chooser != nil {
		k.SetChooser(chooser)
	}
	futs, sems := prog.state(k)
	var log []eqStep
	for id, ops := range prog.actors {
		if continuations {
			k.AfterTask(0, &eqActor{k: k, id: id, ops: ops, end: len(ops), futs: futs, sems: sems, log: &log})
			continue
		}
		k.Go("actor", func(p *Proc) { runOps(p, id, ops, 0, len(ops), futs, sems, &log) })
	}
	k.Run()
	blocked := len(k.Blocked())
	if continuations {
		blocked = k.parked
	}
	var seen []int
	if chooser != nil {
		seen = chooser.seen
	}
	k.Shutdown()
	return log, k.Events(), seen, blocked
}

// TestContinuationsMatchProcs runs random programs of sleeps (0, 1,
// under 16, under 1024 and 1024 or more cycles: the same cycle, the
// next, the wheel and the far heap), future waits and semaphore
// acquires, once as procs and once as continuations (Kernel.AfterTask,
// Future.Then, Semaphore.AcquireThen). Both runs must log every step at
// the same cycle in the same order, run the same number of events and
// leave the same number of actors blocked, with and without a Chooser;
// with one, they must also present it the same ties.
func TestContinuationsMatchProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	blocked := 0
	for trial := 0; trial < 300; trial++ {
		prog := randomEqProgram(rng)
		for _, choose := range []bool{false, true} {
			var pc, cc *eqChooser
			if choose {
				seed := rng.Int63()
				pc = &eqChooser{rng: rand.New(rand.NewSource(seed))}
				cc = &eqChooser{rng: rand.New(rand.NewSource(seed))}
			}
			pLog, pEvents, pSeen, pBlocked := prog.run(false, pc)
			cLog, cEvents, cSeen, cBlocked := prog.run(true, cc)
			if !slices.Equal(pLog, cLog) {
				t.Fatalf("trial %d (chooser %v): logs differ\nprocs:         %v\ncontinuations: %v", trial, choose, pLog, cLog)
			}
			if pEvents != cEvents || pBlocked != cBlocked || !slices.Equal(pSeen, cSeen) {
				t.Fatalf("trial %d (chooser %v): procs ran %d events, left %d blocked, saw ties %v; continuations %d, %d, %v",
					trial, choose, pEvents, pBlocked, pSeen, cEvents, cBlocked, cSeen)
			}
			if pBlocked > 0 {
				blocked++
			}
		}
	}
	if blocked == 0 {
		t.Fatal("no program left an actor blocked: the deadlock count went untested")
	}
}

// TestBlockedCountsContinuations: a continuation queued on a future that
// never completes, or on a semaphore that is never released, is
// reported by Blocked as a process waiting there would be.
func TestBlockedCountsContinuations(t *testing.T) {
	k := NewKernel()
	never := NewFuture(k)
	s := NewSemaphore(k, 1)
	s.TryAcquire()
	k.After(0, func() { never.Then(callback(func() {})) })
	k.After(1, func() {
		if s.AcquireThen(callback(func() {})) {
			t.Error("AcquireThen took a slot of a full semaphore")
		}
	})
	k.Run()
	if b := k.Blocked(); len(b) != 1 || b[0] != "waiting continuations: 2" {
		t.Fatalf("blocked = %q, want the two stranded continuations", b)
	}
	s.Release()
	k.Run()
	if b := k.Blocked(); len(b) != 1 || b[0] != "waiting continuations: 1" {
		t.Fatalf("blocked = %q after the release, want the future's continuation", b)
	}
}

// coroImpls are the two coroutine implementations a kernel can run its
// processes on: the build's, and the Go 1.22 channel fallback.
var coroImpls = []struct {
	name string
	coro func(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func())
}{{"build", newCoro}, {"chan", newChanCoro}}

// runStarted executes prog with actor a started by an event at cycle
// starts[a]: with enter false, that event starts a proc with Go, which
// runs every op; with enter true, it starts the actor as continuations,
// which run the ops before cuts[a] and then enter a proc in place for
// the rest. It returns the step log, the event count, the chooser's tie
// sizes and how many actors are left blocked.
func (prog eqProgram) runStarted(enter bool, starts []Cycle, cuts []int, chooser *eqChooser, coro func(func(func(struct{}) bool)) (func() (struct{}, bool), func())) ([]eqStep, uint64, []int, int) {
	k := NewKernel()
	k.coro = coro
	if chooser != nil {
		k.SetChooser(chooser)
	}
	futs, sems := prog.state(k)
	var log []eqStep
	for id, ops := range prog.actors {
		if enter {
			a := &eqActor{k: k, id: id, ops: ops, end: len(ops), futs: futs, sems: sems, log: &log, enter: true, cut: cuts[id]}
			k.At(starts[id], func() { k.AfterTask(0, a) })
			continue
		}
		k.At(starts[id], func() {
			k.Go("actor", func(p *Proc) { runOps(p, id, ops, 0, len(ops), futs, sems, &log) })
		})
	}
	k.Run()
	blocked := len(k.Blocked())
	if enter && k.parked > 0 {
		blocked += k.parked - 1 // Blocked counts the continuations in one entry
	}
	var seen []int
	if chooser != nil {
		seen = chooser.seen
	}
	k.Shutdown()
	return log, k.Events(), seen, blocked
}

// TestEnterMatchesProcs runs random programs whose actors each start
// from an event, once as a proc that Go starts there and once as a
// chain of continuations that, after a random number of its ops, enters
// a proc in place (Kernel.Enter) for the rest. Both runs must log every
// step at the same cycle in the same order, run the same number of
// events and leave the same number of actors blocked, with and without a
// Chooser (which must see the same ties), on both coroutine
// implementations.
func TestEnterMatchesProcs(t *testing.T) {
	for _, impl := range coroImpls {
		t.Run(impl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			blocked, entered := 0, 0
			for trial := 0; trial < 200; trial++ {
				prog := randomEqProgram(rng)
				starts := make([]Cycle, len(prog.actors))
				cuts := make([]int, len(prog.actors))
				for a, ops := range prog.actors {
					starts[a] = Cycle(rng.Intn(4))
					cuts[a] = rng.Intn(len(ops) + 1)
					if cuts[a] < len(ops) {
						entered++
					}
				}
				for _, choose := range []bool{false, true} {
					var pc, ec *eqChooser
					if choose {
						seed := rng.Int63()
						pc = &eqChooser{rng: rand.New(rand.NewSource(seed))}
						ec = &eqChooser{rng: rand.New(rand.NewSource(seed))}
					}
					pLog, pEvents, pSeen, pBlocked := prog.runStarted(false, starts, cuts, pc, impl.coro)
					eLog, eEvents, eSeen, eBlocked := prog.runStarted(true, starts, cuts, ec, impl.coro)
					if !slices.Equal(pLog, eLog) {
						t.Fatalf("trial %d (chooser %v): logs differ\nGo:    %v\nEnter: %v", trial, choose, pLog, eLog)
					}
					if pEvents != eEvents || pBlocked != eBlocked || !slices.Equal(pSeen, eSeen) {
						t.Fatalf("trial %d (chooser %v): Go ran %d events, left %d blocked, saw ties %v; Enter %d, %d, %v",
							trial, choose, pEvents, pBlocked, pSeen, eEvents, eBlocked, eSeen)
					}
					if pBlocked > 0 {
						blocked++
					}
				}
			}
			if blocked == 0 || entered == 0 {
				t.Fatalf("%d runs left an actor blocked and %d actors entered a proc with ops left: both must be exercised", blocked, entered)
			}
		})
	}
}

// runIssued executes prog with every actor a proc that runs its ops in
// the segments cuts[a] marks, each ending at a cut. With issue false the
// proc runs every segment itself. With issue true it runs every other
// one itself, and issues the rest, the first one too when issueFirst[a]
// is set, as a chain of Tasks whose Issuer it is, and parks until the
// chain resumes it. It returns the step log, the event count, the
// chooser's tie sizes, how many actors are left blocked, and how many
// times a coroutine was entered.
func (prog eqProgram) runIssued(issue bool, cuts [][]int, issueFirst []bool, chooser *eqChooser, coro func(func(func(struct{}) bool)) (func() (struct{}, bool), func())) ([]eqStep, uint64, []int, int, int) {
	k := NewKernel()
	entries := 0
	k.coro = func(body func(yield func(struct{}) bool)) (func() (struct{}, bool), func()) {
		next, stop := coro(body)
		return func() (struct{}, bool) { entries++; return next() }, stop
	}
	if chooser != nil {
		k.SetChooser(chooser)
	}
	futs, sems := prog.state(k)
	var log []eqStep
	for id, ops := range prog.actors {
		k.Go("actor", func(p *Proc) {
			from, issued := 0, issueFirst[id]
			for _, to := range cuts[id] {
				if issue && issued {
					a := &eqActor{k: k, id: id, ops: ops, pc: from, end: to, futs: futs, sems: sems, log: &log, issuer: p}
					a.run()
					p.Park()
				} else {
					runOps(p, id, ops, from, to, futs, sems, &log)
				}
				from, issued = to, !issued
			}
		})
	}
	k.Run()
	blocked := len(k.Blocked())
	if k.parked > 0 {
		blocked-- // the entry counting the parked Tasks; their procs are listed
	}
	var seen []int
	if chooser != nil {
		seen = chooser.seen
	}
	k.Shutdown()
	return log, k.Events(), seen, blocked, entries
}

// TestIssuedTasksMatchProcs runs random programs whose actors are procs
// that run some stretches of their ops themselves and issue the others
// as chains of Tasks (Kernel.AfterTask, Future.Then,
// Semaphore.AcquireThen) that they park on, against the same programs
// run wholly on the procs. Both runs must log every step at the same
// cycle in the same order, run the same number of events and leave the
// same number of actors blocked, with and without a Chooser (which must
// see the same ties), on both coroutine implementations. Without a
// chooser, issuing must not enter coroutines more often.
func TestIssuedTasksMatchProcs(t *testing.T) {
	for _, impl := range coroImpls {
		t.Run(impl.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			blocked, issued := 0, 0
			for trial := 0; trial < 200; trial++ {
				prog := randomEqProgram(rng)
				cuts := make([][]int, len(prog.actors))
				first := make([]bool, len(prog.actors))
				for a, ops := range prog.actors {
					for pc := 1; pc < len(ops); pc++ {
						if rng.Intn(3) == 0 {
							cuts[a] = append(cuts[a], pc)
						}
					}
					cuts[a] = append(cuts[a], len(ops))
					first[a] = rng.Intn(2) == 0
					if first[a] || len(cuts[a]) > 1 {
						issued++
					}
				}
				for _, choose := range []bool{false, true} {
					var pc, ic *eqChooser
					if choose {
						seed := rng.Int63()
						pc = &eqChooser{rng: rand.New(rand.NewSource(seed))}
						ic = &eqChooser{rng: rand.New(rand.NewSource(seed))}
					}
					pLog, pEvents, pSeen, pBlocked, pEntries := prog.runIssued(false, cuts, first, pc, impl.coro)
					iLog, iEvents, iSeen, iBlocked, iEntries := prog.runIssued(true, cuts, first, ic, impl.coro)
					if !slices.Equal(pLog, iLog) {
						t.Fatalf("trial %d (chooser %v): logs differ\nprocs:  %v\nissued: %v", trial, choose, pLog, iLog)
					}
					if pEvents != iEvents || pBlocked != iBlocked || !slices.Equal(pSeen, iSeen) {
						t.Fatalf("trial %d (chooser %v): procs ran %d events, left %d blocked, saw ties %v; issued %d, %d, %v",
							trial, choose, pEvents, pBlocked, pSeen, iEvents, iBlocked, iSeen)
					}
					if !choose && iEntries > pEntries {
						t.Fatalf("trial %d: issuing entered coroutines %d times, running on the procs %d", trial, iEntries, pEntries)
					}
					if pBlocked > 0 {
						blocked++
					}
				}
			}
			if blocked == 0 || issued == 0 {
				t.Fatalf("%d runs left an actor blocked and %d actors issued Tasks: both must be exercised", blocked, issued)
			}
		})
	}
}

// TestIssuedChainRunsInPlace: a proc parked on a chain of Tasks it
// issued, with nothing else due, runs the whole chain in place, each
// step in its own event at its own cycle, with no coroutine entry past
// its start. With a chooser installed it runs none of it in place: it
// yields once, the driver runs the steps, and the chain's last event
// resumes it.
func TestIssuedChainRunsInPlace(t *testing.T) {
	ops := []eqOp{{kind: eqSleep, d: 1}, {kind: eqSleep, d: 0}, {kind: eqAcquire, d: 7}, {kind: eqSleep, d: wheelSlots - 1}}
	for _, impl := range coroImpls {
		for _, choose := range []bool{false, true} {
			prog := eqProgram{sems: []int{1}, actors: [][]eqOp{ops}}
			var c *eqChooser
			if choose {
				c = &eqChooser{rng: rand.New(rand.NewSource(1))}
			}
			log, events, _, blocked, entries := prog.runIssued(true, [][]int{{len(ops)}}, []bool{true}, c, impl.coro)
			want := []eqStep{{0, 0, 1}, {0, 1, 1}, {0, 2, 8}, {0, 3, 8 + wheelSlots - 1}}
			// The start and one event per waiting step; the acquire finds
			// its slot free.
			if !slices.Equal(log, want) || events != 5 || blocked != 0 {
				t.Fatalf("%s, chooser %v: log %v, %d events, %d blocked; want %v, 5, 0", impl.name, choose, log, events, blocked, want)
			}
			// The start, and with a chooser the resume from the chain's
			// last event.
			if wantEntries := map[bool]int{false: 1, true: 2}[choose]; entries != wantEntries {
				t.Fatalf("%s, chooser %v: %d coroutine entries, want %d", impl.name, choose, entries, wantEntries)
			}
		}
	}
}

// TestEnteredProcPanics: a panic in an entered proc's task reaches the
// caller of Run as a *ProcPanic naming the proc, whether it fires
// before the proc first blocks (inside Enter) or after a wake.
func TestEnteredProcPanics(t *testing.T) {
	for _, impl := range coroImpls {
		for _, sleepFirst := range []bool{false, true} {
			k := NewKernel()
			k.coro = impl.coro
			k.Go("bystander", func(p *Proc) { p.Sleep(100) })
			k.After(5, func() {
				k.Enter("entered", func(p *Proc) {
					if sleepFirst {
						p.Sleep(1)
					}
					panic("model assertion")
				})
			})
			var r any
			func() {
				defer func() { r = recover() }()
				k.Run()
			}()
			pp, ok := r.(*ProcPanic)
			if !ok || pp.Proc != "entered" || pp.Value != "model assertion" {
				t.Fatalf("%s, sleep first %v: recovered %T %v, want the entered proc's *ProcPanic", impl.name, sleepFirst, r, r)
			}
			if b := k.Blocked(); len(b) != 1 || b[0] != "bystander" {
				t.Fatalf("%s, sleep first %v: blocked = %q, want the bystander", impl.name, sleepFirst, b)
			}
			k.Shutdown()
		}
	}
}

// TestEnteredProcBlockedAndShutdown: an entered proc parked forever is
// listed by Blocked under its name, and Shutdown unwinds it.
func TestEnteredProcBlockedAndShutdown(t *testing.T) {
	for _, impl := range coroImpls {
		k := NewKernel()
		k.coro = impl.coro
		never := NewFuture(k)
		unwound := false
		k.After(3, func() {
			k.Enter("parked", func(p *Proc) {
				defer func() { unwound = true }()
				p.Wait(never)
				t.Error("the parked proc resumed")
			})
		})
		k.Run()
		if b := k.Blocked(); len(b) != 1 || b[0] != "parked" {
			t.Fatalf("%s: blocked = %q, want the entered proc", impl.name, b)
		}
		k.Shutdown()
		if !unwound {
			t.Fatalf("%s: Shutdown did not unwind the entered proc", impl.name)
		}
		if b := k.Blocked(); len(b) != 0 {
			t.Fatalf("%s: blocked = %q after Shutdown, want none", impl.name, b)
		}
	}
}

// TestEnterFromProcPanics: Enter starts a proc in place only from an
// event; called from a running proc it panics, saying so.
func TestEnterFromProcPanics(t *testing.T) {
	k := NewKernel()
	k.Go("outer", func(p *Proc) {
		p.Sleep(1)
		k.Enter("inner", func(*Proc) { t.Error("the inner proc ran") })
	})
	var r any
	func() {
		defer func() { r = recover() }()
		k.Run()
	}()
	pp, ok := r.(*ProcPanic)
	if !ok || pp.Proc != "outer" {
		t.Fatalf("recovered %T %v, want outer's *ProcPanic", r, r)
	}
	if msg, _ := pp.Value.(string); !strings.Contains(msg, `"outer"`) || !strings.Contains(msg, "call it from an event") {
		t.Fatalf("panic %q does not name the proc and say to call Enter from an event", pp.Value)
	}
	k.Shutdown()
}
