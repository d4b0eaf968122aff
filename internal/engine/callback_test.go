package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"tako/internal/hier"
	"tako/internal/mem"
	"tako/internal/sim"
)

// seqProg serves one spec for every Morph; Morph seqMorph's callbacks
// are Sequential.
type seqProg struct{ fn func(*Ctx) }

const seqMorph = 2

func (p *seqProg) Spec(morphID int, kind hier.CallbackKind) (Spec, bool) {
	return Spec{Cost: CallbackCost{Instrs: 1, CritPath: 1}, Sequential: morphID == seqMorph, Fn: p.fn}, true
}

func (p *seqProg) View(morphID, tile int) interface{} { return nil }

// randChooser picks scheduling ties at random.
type randChooser struct{ rng *rand.Rand }

func (c *randChooser) Choose(n int) int { return c.rng.Intn(n) }

// scriptChooser answers its ties from a script, then picks the first.
type scriptChooser struct{ picks []int }

func (c *scriptChooser) Choose(n int) int {
	if len(c.picks) == 0 {
		return 0
	}
	i := c.picks[0]
	c.picks = c.picks[1:]
	return i
}

// chainCall is one callback of a chain test: what it runs on, and when
// it was scheduled, started and finished.
type chainCall struct {
	morph      int
	addr       mem.Addr
	sleep      sim.Cycle
	line       mem.Line // word 0: the call's index
	seq        int      // position in Run order; -1: not run yet
	ran        sim.Cycle
	start, end sim.Cycle
	done       bool
	// The order in which its Fn started and its consumer resumed,
	// counted over all calls.
	startStep, doneStep int
}

// chainKey names the chain a call serializes on: its Morph's for a
// Sequential one, its address's otherwise.
func (c *chainCall) chainKey() mem.Addr {
	if c.morph == seqMorph {
		return ^mem.Addr(0)
	}
	return c.addr
}

// runChainCalls schedules calls from events at their given cycles on a
// one-tile Ideal engine (no buffer, bitstream or compute time, so a
// callback starts when its chain lets it). Each consumer recycles its
// callback's futures as soon as it resumes, and then holds a pooled
// future incomplete for a while, so a callback that read a recycled
// future would wait on the wrong one. It returns the kernel after Run.
func runChainCalls(calls []*chainCall, at []sim.Cycle, chooser sim.Chooser) *sim.Kernel {
	k := sim.NewKernel()
	if chooser != nil {
		k.SetChooser(chooser)
	}
	steps := 0
	e := New(k, IdealConfig(), 1, &seqProg{fn: func(ctx *Ctx) {
		c := calls[ctx.Line.Word(0)]
		c.start, c.startStep = ctx.P.Now(), steps
		steps++
		if c.sleep > 0 {
			ctx.P.Sleep(c.sleep)
		}
		c.end = ctx.P.Now()
	}}, nil)
	runs := 0
	for i, c := range calls {
		c.line.SetWord(0, uint64(i))
		c.seq = -1
		k.At(at[i], func() {
			c.seq, c.ran = runs, k.Now()
			runs++
			accepted, done := e.Run(0, hier.CbMiss, hier.Binding{MorphID: c.morph}, c.addr, &c.line)
			done.Then(fnTask(func() {
				c.done, c.doneStep = true, steps
				steps++
				k.RecycleFuture(accepted)
				k.RecycleFuture(done)
				held := k.GetFuture()
				k.After(40, func() {
					held.Complete()
					k.RecycleFuture(held)
				})
			}))
		})
	}
	k.Run()
	return k
}

// checkChains checks that every call finished, and that the calls of
// each chain started in Run order, each in the cycle its predecessor
// finished or, if that one had finished already, at its own first
// event (the cycle of its Run).
func checkChains(t *testing.T, trial int, calls []*chainCall) {
	t.Helper()
	last := map[mem.Addr]*chainCall{}
	order := make([]*chainCall, len(calls))
	for _, c := range calls {
		if !c.done {
			t.Fatalf("trial %d: a callback never finished", trial)
		}
		order[c.seq] = c
	}
	for _, c := range order {
		want := c.ran
		if p := last[c.chainKey()]; p != nil && p.end > want {
			want = p.end
		}
		if c.start != want {
			t.Fatalf("trial %d: callback %d (Run %d at cycle %d) started at %d, want %d",
				trial, c.line.Word(0), c.seq, c.ran, c.start, want)
		}
		last[c.chainKey()] = c
	}
}

// TestChainsStartInRunOrder: under random choosers, callbacks chained
// on one address, and a Morph's Sequential callbacks, start in Run
// order and never overlap. Each starts in the cycle its predecessor
// finishes, or at its own first event if the predecessor had already
// finished, while every consumer recycles its futures as soon as it
// resumes.
func TestChainsStartInRunOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(10)
		calls := make([]*chainCall, n)
		at := make([]sim.Cycle, n)
		for i := range calls {
			calls[i] = &chainCall{
				morph: 1 + rng.Intn(2),
				addr:  mem.Addr(0x1000 + 64*rng.Intn(3)),
				sleep: sim.Cycle(rng.Intn(3) * rng.Intn(6)),
			}
			at[i] = sim.Cycle(rng.Intn(12))
		}
		var chooser sim.Chooser
		if trial%4 != 0 {
			chooser = &randChooser{rng: rand.New(rand.NewSource(rng.Int63()))}
		}
		k := runChainCalls(calls, at, chooser)
		checkChains(t, trial, calls)
		if b := k.Blocked(); len(b) != 0 {
			t.Fatalf("trial %d: blocked = %q", trial, b)
		}
	}
}

// TestQueuedCallbackOutlivesRecycledPredecessor is the schedule a
// chooser can produce, and the explorer's does: callback A finishes in
// its first event, its consumer runs next and recycles A's futures (and
// takes one of them back from the pool, incomplete), and only then does
// the first event of B, queued behind A on the same address, run. B must
// start at once; a callback that chained on its predecessor's done
// future would wait on the recycled one.
func TestQueuedCallbackOutlivesRecycledPredecessor(t *testing.T) {
	a := &chainCall{morph: 1, addr: 0x1000}
	b := &chainCall{morph: 1, addr: 0x1000, sleep: 3}
	// Cycle 0 runs A's Run and then B's, and their first events in Run
	// order (the first three ties in queue order); then B's first event
	// ties with A's consumer, which goes first.
	k := runChainCalls([]*chainCall{a, b}, []sim.Cycle{0, 0}, &scriptChooser{picks: []int{0, 0, 0, 1}})
	if a.seq != 0 || b.seq != 1 || a.end != 0 || !a.done || a.doneStep > b.startStep {
		t.Fatalf("schedule not as scripted: A Run %d ended at %d, its consumer at step %d; B Run %d started at step %d",
			a.seq, a.end, a.doneStep, b.seq, b.startStep)
	}
	if !b.done || b.start != 0 {
		t.Fatalf("B started at %d (done %v), want cycle 0: it waited on A's recycled future", b.start, b.done)
	}
	if bl := k.Blocked(); len(bl) != 0 {
		t.Fatalf("blocked = %q", bl)
	}
}

// TestCallbackFinishCycles pins the cycles at which a fixed batch of
// callbacks finishes on the fabric, Ideal and InOrderCore engines:
// callbacks that sleep, that add data-dependent operations, that share
// an address, and more than the buffer holds.
func TestCallbackFinishCycles(t *testing.T) {
	fabric := DefaultConfig()
	fabric.CallbackBuffer = 2
	inOrder := fabric
	inOrder.InOrderCore = true
	ideal := IdealConfig()
	for _, tc := range []struct {
		name string
		cfg  Config
		want []sim.Cycle
	}{
		{"fabric", fabric, []sim.Cycle{72, 80, 3, 29, 26}},
		{"ideal", ideal, []sim.Cycle{5, 10, 0, 0, 20}},
		{"in-order", inOrder, []sim.Cycle{133, 286, 704, 1408, 217}},
	} {
		spec := Spec{
			Cost: CallbackCost{Instrs: 4, CritPath: 3},
			Fn: func(ctx *Ctx) {
				switch ctx.Addr {
				case 0x1000:
					ctx.P.Sleep(5)
				case 0x2000:
					ctx.Compute(40)
				case 0x3000:
					ctx.P.Sleep(20)
				}
			},
		}
		k, e := setup(tc.cfg, spec)
		var line mem.Line
		var got []sim.Cycle
		var dones []*sim.Future
		for _, a := range []mem.Addr{0x1000, 0x1000, 0x2000, 0x2000, 0x3000} {
			_, d := e.Run(0, hier.CbMiss, binding(), a, &line)
			dones = append(dones, d)
		}
		k.Run()
		for _, d := range dones {
			got = append(got, d.When())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: callbacks finished at %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStrandedCallbackIsBlocked: a callback whose Fn never returns is a
// parked proc, and the callbacks stranded behind it, one on its address
// chain and one on the callback buffer, are waiting continuations.
func TestStrandedCallbackIsBlocked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CallbackBuffer = 1
	var never *sim.Future
	spec := Spec{Cost: CallbackCost{Instrs: 1, CritPath: 1}, Fn: func(ctx *Ctx) { ctx.P.Wait(never) }}
	k, e := setup(cfg, spec)
	never = sim.NewFuture(k)
	var line mem.Line
	e.Run(0, hier.CbMiss, binding(), 0x1000, &line)
	e.Run(0, hier.CbMiss, binding(), 0x1000, &line) // behind it on the address
	e.Run(0, hier.CbMiss, binding(), 0x2000, &line) // behind it on the buffer
	k.Run()
	if b := k.Blocked(); !reflect.DeepEqual(b, []string{"cb:onMiss@0", "waiting continuations: 2"}) {
		t.Fatalf("blocked = %q, want the parked callback and two stranded behind it", b)
	}
	k.Shutdown()
}

// TestCtxZeroedAfterCallback: a Ctx is valid only during its callback;
// one a Morph keeps is zeroed when the callback ends.
func TestCtxZeroedAfterCallback(t *testing.T) {
	var kept *Ctx
	spec := Spec{Cost: CallbackCost{Instrs: 3, CritPath: 2}, Fn: func(ctx *Ctx) {
		ctx.Compute(2)
		kept = ctx
	}}
	k, e := setup(DefaultConfig(), spec)
	var line mem.Line
	_, done := e.Run(1, hier.CbEviction, binding(), 0x1040, &line)
	k.Run()
	if !done.Done() || kept == nil {
		t.Fatal("the callback did not run")
	}
	if !reflect.DeepEqual(*kept, Ctx{}) {
		t.Fatalf("the kept Ctx is %+v after its callback, want zero", *kept)
	}
	if e.Stats(1).Instrs != 5 {
		t.Fatalf("instrs = %d, want 5 (the extra ops counted before the Ctx was zeroed)", e.Stats(1).Instrs)
	}
}

// fnTask is a Task no process waits on that runs a function.
type fnTask func()

func (f fnTask) Resume()         { f() }
func (fnTask) Issuer() *sim.Proc { return nil }
