package sim

import (
	"math/rand"
	"slices"
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

// eqActor runs one actor's ops as continuations: pc is the op, phase the
// position within it.
type eqActor struct {
	k      *Kernel
	id     int
	ops    []eqOp
	pc     int
	phase  int
	futs   []*Future
	sems   []*Semaphore
	log    *[]eqStep
	resume func()
}

func (a *eqActor) run() {
	for a.pc < len(a.ops) {
		o := a.ops[a.pc]
		switch o.kind {
		case eqSleep:
			if a.phase == 0 {
				a.phase = 1
				a.k.After(o.d, a.resume)
				return
			}
		case eqWait:
			if f := a.futs[o.i]; a.phase == 0 && !f.Done() {
				a.phase = 1
				f.Then(a.resume)
				return
			}
		case eqAcquire:
			switch a.phase {
			case 0:
				a.phase = 1
				if !a.sems[o.i].AcquireThen(a.resume) {
					return
				}
				fallthrough
			case 1:
				a.phase = 2
				a.k.After(o.d, a.resume)
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

// run executes the program and returns its step log, the kernel's event
// count, the chooser's tie sizes (nil without one) and how many actors
// are still blocked at the end.
func (prog eqProgram) run(continuations bool, chooser *eqChooser) ([]eqStep, uint64, []int, int) {
	k := NewKernel()
	if chooser != nil {
		k.SetChooser(chooser)
	}
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
	var log []eqStep
	for id, ops := range prog.actors {
		if continuations {
			a := &eqActor{k: k, id: id, ops: ops, futs: futs, sems: sems, log: &log}
			a.resume = a.run
			k.After(0, a.resume)
			continue
		}
		k.Go("actor", func(p *Proc) {
			for pc, o := range ops {
				switch o.kind {
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
				log = append(log, eqStep{id, pc, p.Now()})
			}
		})
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
// acquires, once as procs and once as continuations (Kernel.After,
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
	k.After(0, func() { never.Then(func() {}) })
	k.After(1, func() {
		if s.AcquireThen(func() {}) {
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
