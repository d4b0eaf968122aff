package sim

// Semaphore is a counting semaphore for simulated processes, used to
// model bounded hardware resources (MSHRs, writeback-buffer entries,
// callback-buffer slots, outstanding-RMO limits). Waiters, processes
// (Acquire) and Tasks (AcquireThen) alike, are woken in FIFO order.
type Semaphore struct {
	k       *Kernel
	free    int
	cap     int
	waiters []Task // each a *Proc or a Task
}

// NewSemaphore returns a semaphore with n slots.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	if n <= 0 {
		panic("sim: semaphore needs at least one slot")
	}
	return &Semaphore{k: k, free: n, cap: n}
}

// Acquire takes a slot, blocking the process until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.free > 0 {
		s.free--
		return
	}
	s.waiters = append(s.waiters, p)
	p.Park() // the releasing side hands its slot directly to us
}

// AcquireThen is the Task form of Acquire. It takes a free slot and
// reports true, and the caller carries on at once; otherwise it queues t
// and reports false, and t resumes, holding the slot, when a Release
// hands it over, exactly when a process queued in its place would wake.
func (s *Semaphore) AcquireThen(t Task) bool {
	if s.free > 0 {
		s.free--
		return true
	}
	s.k.parked++
	s.waiters = append(s.waiters, t)
	return false
}

// TryAcquire takes a slot without blocking, reporting success.
func (s *Semaphore) TryAcquire() bool {
	if s.free > 0 {
		s.free--
		return true
	}
	return false
}

// Release returns a slot. If a process or Task is waiting, the slot
// passes directly to the first waiter.
func (s *Semaphore) Release() {
	if n := len(s.waiters); n > 0 {
		w := s.waiters[0]
		// Shift in place rather than reslicing forward, so the backing
		// array is reused across acquire/release cycles.
		copy(s.waiters, s.waiters[1:])
		s.waiters[n-1] = nil
		s.waiters = s.waiters[:n-1]
		s.k.wake(w)
		return
	}
	if s.free == s.cap {
		panic("sim: semaphore over-released")
	}
	s.free++
}

// Free returns the number of available slots.
func (s *Semaphore) Free() int { return s.free }

// Saturated reports whether no slot is free and processes are waiting or
// the semaphore is fully consumed.
func (s *Semaphore) Saturated() bool { return s.free == 0 }

// WaitGroup tracks a number of in-flight operations; processes can block
// until the count drains to zero. Used to drain asynchronous remote
// memory operations before a flush (täkō §8.1).
type WaitGroup struct {
	k       *Kernel
	n       int
	waiters []Task // each a *Proc
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{k: k}
}

// Add increments the in-flight count by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative waitgroup count")
	}
	if w.n == 0 {
		w.wake()
	}
}

// Done decrements the in-flight count.
func (w *WaitGroup) Done() { w.Add(-1) }

// Count returns the current in-flight count.
func (w *WaitGroup) Count() int { return w.n }

func (w *WaitGroup) wake() {
	for _, p := range w.waiters {
		w.k.wake(p)
	}
	w.k.putWaiters(w.waiters)
	w.waiters = nil
}

// Wait blocks p until the count is zero. A zero count returns
// immediately.
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	if w.waiters == nil {
		w.waiters = w.k.getWaiters()
	}
	w.waiters = append(w.waiters, p)
	p.Park()
}

// Barrier is a reusable rendezvous for a fixed set of processes: each
// generation releases when all n participants arrive.
type Barrier struct {
	k       *Kernel
	n       int
	arrived int
	waiters []Task // each a *Proc
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier needs at least one participant")
	}
	return &Barrier{k: k, n: n}
}

// Arrive blocks p until all participants of the current generation have
// arrived; the last arriver releases everyone and resets the barrier.
func (b *Barrier) Arrive(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		for _, w := range b.waiters {
			b.k.wake(w)
		}
		b.k.putWaiters(b.waiters)
		b.waiters = nil
		return
	}
	if b.waiters == nil {
		b.waiters = b.k.getWaiters()
	}
	b.waiters = append(b.waiters, p)
	p.Park()
}
