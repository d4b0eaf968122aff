package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// This file is the determinism battery for the tile-sharded kernel. The
// contract under test: a Sharded run produces a byte-identical simulation
// at every worker width, identical to the single-threaded RunSequenced
// reference, and unaffected by the order mailboxes are drained in. Run
// these under -race to also certify the epoch barriers (CI does).

// shardedFixture is a Sharded kernel plus per-shard trace logs. Each
// shard's log is appended only by events executing on that shard, so
// recording is race-free under parallel Run; merged() concatenates in
// shard order for comparison.
type shardedFixture struct {
	s       *Sharded
	traces  [][]string
	workers int
}

func (f *shardedFixture) record(shard int, format string, args ...any) {
	f.traces[shard] = append(f.traces[shard], fmt.Sprintf(format, args...))
}

func (f *shardedFixture) merged() string {
	var b strings.Builder
	for i, tr := range f.traces {
		for _, line := range tr {
			fmt.Fprintf(&b, "shard%d %s\n", i, line)
		}
	}
	return b.String()
}

// buildShardedWorkload wires a deterministic 16-shard program exercising
// every cross-shard path: plain Send callbacks, SendComplete on
// pre-created futures, SendWake on explicitly parked processes, plus
// local event chains and sleeps with pseudo-random (seeded) timing. Every
// cross-shard send takes at least minDelay cycles, so the engine may run
// it at any lookahead from 1 to minDelay.
func buildShardedWorkload(shards int, lookahead Cycle) *shardedFixture {
	const (
		minDelay = 3
		steps    = 40
		rounds   = 16
	)
	if shards < 3 {
		panic("workload needs ≥3 shards")
	}
	s := NewSharded(shards, lookahead)
	f := &shardedFixture{s: s, traces: make([][]string, shards)}

	// Futures completed cross-shard: futures[i][r] lives on shard i and
	// is completed by shard (i-1)'s driver at its step r. Pre-created so
	// no shard ever reads another shard's state mid-run.
	futures := make([][]*Future, shards)
	for i := range futures {
		futures[i] = make([]*Future, rounds)
		for r := range futures[i] {
			futures[i][r] = NewFuture(s.Shard(i).K)
		}
	}

	// Futures acked by spawned callback procs (the engine-callback
	// message shape: ship work to a remote shard, which runs it as a
	// fresh proc on its own kernel and acks completion back). One per
	// callback round, living on the requesting shard.
	cbAcks := make([][]*Future, shards)
	for i := range cbAcks {
		cbAcks[i] = make([]*Future, steps/4+1)
		for r := range cbAcks[i] {
			cbAcks[i][r] = NewFuture(s.Shard(i).K)
		}
	}

	// Processes parked via block() and woken cross-shard by SendWake:
	// blocker i is woken (rounds times, spaced ≥1 cycle apart) by shard
	// (i-2)'s driver.
	blockers := make([]*Proc, shards)
	for i := 0; i < shards; i++ {
		i := i
		sh := s.Shard(i)
		sh.K.Go("waiter", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Wait(futures[i][r])
				f.record(i, "waiter round %d woke at %d", r, p.Now())
			}
		})
		blockers[i] = sh.K.Go("blocker", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.block()
				f.record(i, "blocker round %d at %d", r, p.Now())
			}
		})
	}
	for i := 0; i < shards; i++ {
		i := i
		sh := s.Shard(i)
		sh.K.Go("driver", func(p *Proc) {
			rng := rand.New(rand.NewSource(int64(i) + 42))
			for step := 0; step < steps; step++ {
				step := step
				f.record(i, "drive step %d at %d", step, p.Now())
				sh.K.After(Cycle(rng.Intn(3)), func() {
					f.record(i, "local fn of step %d at %d", step, sh.K.Now())
				})
				dest := (i + 1 + rng.Intn(shards-1)) % shards
				delay := Cycle(minDelay + rng.Intn(4))
				sh.Send(dest, delay, func() {
					f.record(dest, "msg from %d step %d at %d", i, step, s.Shard(dest).K.Now())
				})
				if step < rounds {
					sh.SendComplete((i+1)%shards, delay, futures[(i+1)%shards][step])
					sh.SendWake((i+2)%shards, minDelay, blockers[(i+2)%shards])
				}
				if step%4 == 0 {
					// The engine-callback pattern from the hierarchy's
					// morph hosting: the request message spawns a callback
					// proc on the destination's own kernel; the proc does
					// local work, then acks the origin, which blocks on
					// the round trip (flush fan-outs, registration
					// broadcasts, persist RPCs all have this shape).
					cbDst := (i + 1 + shards/2) % shards
					ack := cbAcks[i][step/4]
					dt := s.Shard(cbDst)
					sh.Send(cbDst, minDelay, func() {
						dt.K.Go("cb", func(q *Proc) {
							f.record(cbDst, "cb for %d step %d at %d", i, step, q.Now())
							q.Sleep(Cycle(1 + step%3))
							dt.SendComplete(i, minDelay, ack)
						})
					})
					p.Wait(ack)
					f.record(i, "cb ack step %d at %d", step, p.Now())
				}
				p.Sleep(Cycle(1 + rng.Intn(4)))
			}
		})
	}
	return f
}

// TestShardedMatchesSequencedAcrossWidths is the core determinism gate:
// the parallel run is byte-identical to the single-threaded reference at
// worker widths 1/2/4/8/16, including per-event timestamps and the
// coordinator's epoch/message counts.
func TestShardedMatchesSequencedAcrossWidths(t *testing.T) {
	const shards = 16
	ref := buildShardedWorkload(shards, 3)
	ref.s.RunSequenced()
	want := ref.merged()
	if want == "" {
		t.Fatal("reference workload produced no trace")
	}
	refStats := ref.s.Stats()
	if refStats.Epochs < 5 {
		t.Fatalf("workload too shallow to exercise barriers: %d epochs", refStats.Epochs)
	}
	if refStats.Messages == 0 {
		t.Fatal("workload sent no cross-shard messages")
	}
	ref.s.Release()

	for _, workers := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := buildShardedWorkload(shards, 3)
			f.s.Run(workers)
			if got := f.merged(); got != want {
				t.Errorf("trace diverged from sequenced reference at %d workers:\n%s",
					workers, firstDiff(got, want))
			}
			if st := f.s.Stats(); st != refStats {
				t.Errorf("stats diverged at %d workers: got %+v want %+v", workers, st, refStats)
			}
			if blocked := f.s.Blocked(); len(blocked) != 0 {
				t.Errorf("deadlocked procs after run: %v", blocked)
			}
			f.s.Release()
		})
	}
}

// TestShardedOrderIndependentOfLookahead pins that no result depends on
// where the epoch barriers fall: the workload, whose sends all take at
// least 3 cycles, gives the same trace at lookahead 1 and 2 — on one
// worker and on four — as the sequenced run at lookahead 3.
func TestShardedOrderIndependentOfLookahead(t *testing.T) {
	const shards = 16
	ref := buildShardedWorkload(shards, 3)
	ref.s.RunSequenced()
	want := ref.merged()
	ref.s.Release()

	for _, lookahead := range []Cycle{1, 2} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("lookahead=%d/workers=%d", lookahead, workers), func(t *testing.T) {
				f := buildShardedWorkload(shards, lookahead)
				f.s.Run(workers)
				if got := f.merged(); got != want {
					t.Errorf("trace at lookahead %d diverged from lookahead 3:\n%s",
						lookahead, firstDiff(got, want))
				}
				f.s.Release()
			})
		}
	}
}

// TestShardedRunEndsAtLastEvent pins that a sharded run stops its clocks
// at their last events, as the classic kernel does, rather than at the
// end of the last epoch: a lone proc sleeping 10 cycles on a lookahead-3
// engine ends at cycle 10, not at the epoch end 12.
func TestShardedRunEndsAtLastEvent(t *testing.T) {
	k := NewKernel()
	k.Go("sleeper", func(p *Proc) { p.Sleep(10) })
	k.Run()
	for _, workers := range []int{1, 2} {
		s := NewSharded(2, 3)
		s.Shard(0).K.Go("sleeper", func(p *Proc) { p.Sleep(10) })
		s.Run(workers)
		if got := s.Shard(0).K.Now(); got != k.Now() {
			t.Errorf("%d workers: sharded run ended at cycle %d, classic at %d", workers, got, k.Now())
		}
		if got := s.Shard(1).K.Now(); got != 0 {
			t.Errorf("%d workers: idle shard's clock moved to %d", workers, got)
		}
		s.Release()
	}
}

// TestShardedChannelFIFO pins that every (src, dst) channel is FIFO: a
// send is pushed past the latest arrival already promised on its
// channel, and same-cycle arrivals keep their send order. A shard's
// sends to itself form a channel too; other channels are not held back.
func TestShardedChannelFIFO(t *testing.T) {
	f := &shardedFixture{s: NewSharded(3, 3), traces: make([][]string, 3)}
	sh := f.s.Shard(0)
	send := func(to int, delay Cycle, name string) {
		sh.Send(to, delay, func() { f.record(to, "%s at %d", name, f.s.Shard(to).K.Now()) })
	}
	sh.K.At(5, func() {
		send(1, 10, "a")
		send(1, 3, "b") // held back to a's arrival, and runs after it
		send(2, 3, "c") // another channel: not held back
		send(0, 4, "d")
		send(0, 1, "e") // the self channel: held back to d's arrival
	})
	f.s.RunSequenced()
	want := "shard0 d at 9\nshard0 e at 9\nshard1 a at 15\nshard1 b at 15\nshard2 c at 8\n"
	if got := f.merged(); got != want {
		t.Errorf("channel order:\n%s", firstDiff(got, want))
	}
}

// TestShardedDrainPermutationInvariant pins that the (cycle, origin
// shard, origin sequence) key erases the mailbox delivery order: a run
// whose per-epoch sender iteration is reversed (and one rotated by the
// epoch number) matches the untouched reference byte for byte.
func TestShardedDrainPermutationInvariant(t *testing.T) {
	const shards = 16
	ref := buildShardedWorkload(shards, 3)
	ref.s.RunSequenced()
	want := ref.merged()
	ref.s.Release()

	perms := map[string]func(epoch, n int) []int{
		"reversed": func(_, n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = n - 1 - i
			}
			return p
		},
		"rotating": func(epoch, n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = (i + epoch) % n
			}
			return p
		},
	}
	for name, perm := range perms {
		t.Run(name, func(t *testing.T) {
			f := buildShardedWorkload(shards, 3)
			epoch := 0
			f.s.permute = func(n int) []int {
				epoch++
				return perm(epoch, n)
			}
			f.s.Run(4)
			if got := f.merged(); got != want {
				t.Errorf("drain permutation %q changed the schedule:\n%s", name, firstDiff(got, want))
			}
			f.s.Release()
		})
	}
}

// FuzzShardedDrainOrder feeds arbitrary per-epoch drain permutations to
// the coordinator, at an engine lookahead of 1 to 3 taken from the first
// input byte, and asserts the simulation is unchanged — the fuzzing
// analog of TestShardedDrainPermutationInvariant and
// TestShardedOrderIndependentOfLookahead.
func FuzzShardedDrainOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 7, 255, 3})
	f.Add([]byte{13, 13, 13, 13, 13, 13, 13, 13})
	ref := buildShardedWorkload(4, 3)
	ref.s.RunSequenced()
	want := ref.merged()
	ref.s.Release()

	f.Fuzz(func(t *testing.T, data []byte) {
		lookahead := Cycle(3)
		if len(data) > 0 {
			lookahead = 1 + Cycle(data[0]%3)
		}
		fx := buildShardedWorkload(4, lookahead)
		idx := 0
		fx.s.permute = func(n int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = i
			}
			for i := n - 1; i > 0; i-- {
				var b byte
				if len(data) > 0 {
					b = data[idx%len(data)]
					idx++
				}
				j := int(b) % (i + 1)
				p[i], p[j] = p[j], p[i]
			}
			return p
		}
		fx.s.Run(2)
		if got := fx.merged(); got != want {
			t.Errorf("fuzzed drain order changed the schedule:\n%s", firstDiff(got, want))
		}
		fx.s.Release()
	})
}

// TestShardedHorizonBoundary is the epoch off-by-one stress: both shards
// execute an event every single cycle, and every cross-shard message is
// sent with delay exactly equal to the lookahead — so every delivery
// lands exactly on an epoch horizon. A coordinator that ran epochs one
// cycle too long would make the receiver's clock pass the arrival time
// and trip the scheduling-in-the-past panic; one that ran them short
// would change arrival interleaving. The test also pins the absolute
// arrival cycles and the origin rule for same-cycle ties: a message
// orders against a local event by origin shard, wherever the epochs
// fall.
func TestShardedHorizonBoundary(t *testing.T) {
	const (
		lookahead = 3
		ticks     = 30
	)
	build := func() *shardedFixture {
		s := NewSharded(2, lookahead)
		f := &shardedFixture{s: s, traces: make([][]string, 2)}
		for i := 0; i < 2; i++ {
			i := i
			sh := s.Shard(i)
			var tick func()
			n := 0
			tick = func() {
				now := sh.K.Now()
				f.record(i, "tick at %d", now)
				peer := 1 - i
				sh.Send(peer, lookahead, func() {
					f.record(peer, "msg sent at %d arrives at %d", now, s.Shard(peer).K.Now())
				})
				if n++; n < ticks {
					sh.K.After(1, tick)
				}
			}
			sh.K.After(0, tick)
		}
		return f
	}

	ref := build()
	ref.s.RunSequenced()
	want := ref.merged()
	ref.s.Release()

	// Every message must arrive exactly lookahead cycles after its send.
	for _, line := range strings.Split(strings.TrimSpace(want), "\n") {
		if !strings.Contains(line, "msg sent") {
			continue
		}
		var shard, sent, arrived int
		if _, err := fmt.Sscanf(line, "shard%d msg sent at %d arrives at %d", &shard, &sent, &arrived); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if arrived != sent+lookahead {
			t.Fatalf("message sent at %d arrived at %d, want exactly +%d: %q", sent, arrived, lookahead, line)
		}
	}
	// Origin rule: same-cycle events order by (origin shard, origin
	// sequence). On shard 0 the local tick (origin 0) runs before the
	// message from shard 1; on shard 1 the message from shard 0 runs
	// before the local tick — at every cycle, epoch start or not.
	for i := 0; i < 2; i++ {
		tickAt := map[int]int{} // cycle → trace index of the tick
		msgAt := map[int]int{}  // cycle → trace index of the first arrival
		for idx, line := range ref.traces[i] {
			var at, sent int
			if _, err := fmt.Sscanf(line, "tick at %d", &at); err == nil {
				tickAt[at] = idx
			} else if _, err := fmt.Sscanf(line, "msg sent at %d arrives at %d", &sent, &at); err == nil {
				if _, dup := msgAt[at]; !dup {
					msgAt[at] = idx
				}
			}
		}
		checked := 0
		for at, ti := range tickAt {
			mi, ok := msgAt[at]
			if !ok {
				continue
			}
			checked++
			tickFirst := ti < mi
			wantTickFirst := i == 0
			if tickFirst != wantTickFirst {
				t.Fatalf("shard %d cycle %d: tickFirst=%v, want %v (origin rule)", i, at, tickFirst, wantTickFirst)
			}
		}
		if checked < 10 {
			t.Fatalf("shard %d: only %d tick/arrival collisions — workload not dense enough", i, checked)
		}
	}

	for _, workers := range []int{1, 2} {
		f := build()
		f.s.Run(workers)
		if got := f.merged(); got != want {
			t.Errorf("horizon-boundary trace diverged at %d workers:\n%s", workers, firstDiff(got, want))
		}
		f.s.Release()
	}
}

// TestShardedLookaheadViolationPanics pins the causality guard: a
// cross-shard send with delay below the lookahead must panic rather than
// silently corrupt an already-executed window.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	s := NewSharded(2, 3)
	s.Shard(0).K.After(0, func() {
		s.Shard(0).Send(1, 2, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "violates lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s.Run(2)
}

// TestShardedPanicPropagation: a panic on any shard's process surfaces
// on the Run caller as the usual ProcPanic, and when several shards fail
// in the same epoch the lowest shard id wins deterministically.
func TestShardedPanicPropagation(t *testing.T) {
	s := NewSharded(4, 3)
	for _, id := range []int{2, 1} {
		id := id
		s.Shard(id).K.Go("bomb", func(p *Proc) {
			p.Sleep(10)
			panic(fmt.Sprintf("boom%d", id))
		})
	}
	defer func() {
		r := recover()
		pp, ok := r.(*ProcPanic)
		if !ok {
			t.Fatalf("want *ProcPanic, got %T: %v", r, r)
		}
		if pp.Value != "boom1" {
			t.Fatalf("want lowest-shard panic boom1, got %v", pp.Value)
		}
	}()
	s.Run(4)
}

// TestShardedBlockedReportsDeadlock: a process parked forever is visible
// through Blocked with its shard prefix, and Shutdown unwinds it.
func TestShardedBlockedReportsDeadlock(t *testing.T) {
	s := NewSharded(4, 3)
	f := NewFuture(s.Shard(2).K)
	s.Shard(2).K.Go("stuck", func(p *Proc) {
		p.Wait(f) // never completed
	})
	s.Run(2)
	blocked := s.Blocked()
	if len(blocked) != 1 || blocked[0] != "shard2/stuck" {
		t.Fatalf("Blocked = %v, want [shard2/stuck]", blocked)
	}
	s.Shutdown()
	if blocked := s.Blocked(); len(blocked) != 0 {
		t.Fatalf("still blocked after Shutdown: %v", blocked)
	}
}

// TestShardedAllocsPerEvent is the zero-alloc gate for the parallel
// coordinator: once mailboxes and queues are warm, epochs — including
// cross-shard sends, mailbox delivery, and the worker barrier — stay
// under 0.01 allocations per executed event.
func TestShardedAllocsPerEvent(t *testing.T) {
	const (
		shards    = 8
		lookahead = 3
		perShard  = 5000
	)
	s := NewSharded(shards, lookahead)
	noop := func() {}
	type load struct {
		sh *Shard
		n  int
		fn func()
	}
	loads := make([]*load, shards)
	for i := 0; i < shards; i++ {
		l := &load{sh: s.Shard(i)}
		next := (i + 1) % shards
		l.fn = func() {
			if l.n--; l.n <= 0 {
				return
			}
			if l.n%8 == 0 {
				l.sh.Send(next, lookahead, noop)
			}
			l.sh.K.After(1, l.fn)
		}
		loads[i] = l
	}
	run := func() {
		for _, l := range loads {
			l.n = perShard
			l.sh.K.After(1, l.fn)
		}
		s.Run(4)
	}
	events := s.Shard(0).K.Events() // 0 before the warm-up inside AllocsPerRun
	avg := testing.AllocsPerRun(5, run)
	var total uint64
	for i := 0; i < shards; i++ {
		total += s.Shard(i).K.Events()
	}
	perRun := total / 7 // warm-up + 1 extra + 5 measured runs
	if events != 0 {
		t.Fatalf("expected a fresh coordinator, saw %d events", events)
	}
	if perEvent := avg / float64(perRun); perEvent > 0.01 {
		t.Fatalf("sharded run allocates %.4f allocs/event over %d events, want ≤0.01", perEvent, perRun)
	}
}

// firstDiff renders the first divergent line of two traces, with context.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d lines", len(g), len(w))
}
