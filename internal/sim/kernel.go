// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue. Simulated activities
// are "processes": ordinary Go functions running on their own goroutines,
// but scheduled cooperatively so that exactly one process (or the kernel
// loop itself) executes at any moment. A process advances virtual time by
// sleeping, or blocks on synchronization primitives (Event, Chan, Resource,
// Barrier) until another process wakes it. Because hand-off between the
// kernel and processes is strictly sequential and the event queue breaks
// ties by insertion order, a simulation is fully deterministic: the same
// program produces the same virtual-time trace on every run.
//
// This kernel is the substrate for the simulated cluster: every MPI rank,
// device stream, and fabric transfer in this repository is a sim process.
//
// # Scheduling internals
//
// Two hot-path design choices keep the kernel off the wall-clock profile
// (docs/ARCHITECTURE.md, "Simulator performance"):
//
//   - Events are values in a 4-ary index heap, not pointers in a
//     container/heap. The backing slice is the free list: popped slots are
//     reused by later pushes, so steady-state scheduling performs zero heap
//     allocations. Process activations carry the *Proc directly instead of
//     a heap-allocated closure.
//
//   - The dispatch loop migrates to whichever goroutine holds the
//     "scheduler token". When a process parks it does not bounce control
//     through a central kernel goroutine; it pops and executes events
//     itself until one activates another process (one channel hand-off)
//     or itself (zero hand-offs — the dominant Sleep/park/unpark cycle).
package sim

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual clock, expressed as an offset from the
// simulation epoch (time zero). Durations use the standard library's
// time.Duration; one tick is one virtual nanosecond.
type Time = time.Duration

// event is a scheduled occurrence. seq orders events with equal fire times
// so the queue pops them in schedule order, keeping runs deterministic.
// Exactly one of proc and fn is set: proc marks a process activation (the
// allocation-free fast path), fn a general callback.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// eventQueue is a 4-ary min-heap of event values ordered by (at, seq). The
// wider fan-out halves the tree depth of the binary heap it replaces, and
// value storage removes the per-event allocation and interface boxing of
// container/heap.
type eventQueue []event

func (q eventQueue) before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	s := append(*q, ev)
	// Sift up with a hole instead of pairwise swaps.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(&ev, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*q = s
}

func (q *eventQueue) pop() event {
	s := *q
	top := s[0]
	last := len(s) - 1
	ev := s[last]
	s[last] = event{} // release proc/fn references into the free list slot
	s = s[:last]
	*q = s
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root with a hole.
	i := 0
	for {
		c := i*4 + 1
		if c >= last {
			break
		}
		end := c + 4
		if end > last {
			end = last
		}
		min := c
		for j := c + 1; j < end; j++ {
			if s.before(&s[j], &s[min]) {
				min = j
			}
		}
		if !s.before(&s[min], &ev) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = ev
	return top
}

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now     Time
	queue   eventQueue
	seq     uint64
	idle    chan struct{} // returns the scheduler token to Run
	procs   map[int]*Proc
	nextPID int
	alive   int
	running bool
	stopped bool
	closed  bool
}

// NewKernel returns a kernel with an empty event queue and the clock at zero.
func NewKernel() *Kernel {
	k := &Kernel{
		idle:  make(chan struct{}),
		procs: make(map[int]*Proc),
	}
	if testHookNewKernel != nil {
		testHookNewKernel(k)
	}
	return k
}

// testHookNewKernel, when set (only by this package's tests), sees every
// kernel built, so the suite can close them all before its leak check.
var testHookNewKernel func(*Kernel)

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule enqueues fn to run at virtual time at. It may be called from the
// kernel loop or from the currently executing process; both are serialized.
func (k *Kernel) schedule(at Time, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.queue.push(event{at: at, seq: k.seq, fn: fn})
	k.seq++
}

// scheduleProc enqueues an activation of p at virtual time at. This is the
// allocation-free fast path behind Sleep, unpark, and Spawn.
func (k *Kernel) scheduleProc(at Time, p *Proc) {
	if at < k.now {
		at = k.now
	}
	k.queue.push(event{at: at, seq: k.seq, proc: p})
	k.seq++
}

// After schedules fn to run after delay d of virtual time. It is the
// non-blocking timer primitive; processes that want to block should use
// Proc.Sleep instead.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.schedule(k.now+d, fn)
}

// Spawn creates a new process running fn and schedules its first activation
// at the current virtual time. It may be called before Run or from inside a
// running process. On a closed kernel the process is born dead: fn never
// runs and no goroutine starts.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon creates a background service process. Daemons do not keep the
// simulation alive and are not reported as deadlocked: a run in which only
// daemons remain blocked (e.g. device streams waiting for work) terminates
// normally. Use daemons for server loops, streams, and progress engines.
func (k *Kernel) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *Kernel) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{
		k:      k,
		id:     k.nextPID,
		name:   name,
		resume: make(chan struct{}),
		done:   NewEvent(k),
		daemon: daemon,
	}
	k.nextPID++
	if k.closed {
		p.dead = true
		return p
	}
	k.procs[p.id] = p
	if !daemon {
		k.alive++
	}
	go func() {
		<-p.resume
		if !k.closed {
			p.run(fn)
		}
		p.dead = true
		if !p.daemon {
			k.alive--
		}
		delete(k.procs, p.id)
		if k.closed {
			k.idle <- struct{}{} // hand the token back to Close
			return
		}
		p.done.Fire()
		// The goroutine exits holding the scheduler token: keep dispatching
		// until the token moves on. Self-activation cannot occur (p is dead,
		// so stale activations of p are skipped).
		k.dispatch(p)
	}()
	k.scheduleProc(k.now, p)
	return p
}

// dispatch runs the event loop on the calling goroutine. Exactly one
// goroutine dispatches at a time — the "scheduler token" — so all kernel
// state stays single-threaded even though many goroutines exist. The loop
// exits when:
//
//   - an event activates self: dispatch returns false and the caller simply
//     keeps running (no channel operation at all);
//   - an event activates another process: the token is handed to it over
//     its resume channel and dispatch returns true;
//   - the queue drains or Stop was called: the token is returned to Run via
//     the idle channel (unless the Run goroutine itself, self == nil, is
//     dispatching) and dispatch returns true.
//
// A true return tells a parking process to wait for its own resume signal.
func (k *Kernel) dispatch(self *Proc) bool {
	for !k.stopped && len(k.queue) > 0 {
		ev := k.queue.pop()
		k.now = ev.at
		if p := ev.proc; p != nil {
			if p.dead {
				continue // stale activation of an exited process
			}
			if p == self {
				return false
			}
			p.resume <- struct{}{}
			return true
		}
		if ev.fn != nil {
			ev.fn()
		}
	}
	if self != nil {
		k.idle <- struct{}{}
		return true
	}
	return false
}

// Stop aborts the simulation: Run returns after the current event completes.
// Outstanding processes are left parked; Run does not report them as a
// deadlock when stopped deliberately.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains or Stop is called. It returns a
// *DeadlockError if processes remain blocked with no pending events, and
// ErrClosed once the kernel has been closed.
func (k *Kernel) Run() error {
	if k.closed {
		return ErrClosed
	}
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()
	if k.dispatch(nil) {
		// The token went to a process; it comes back when the queue drains.
		<-k.idle
	}
	if k.stopped {
		return nil
	}
	if k.alive > 0 {
		return &DeadlockError{Now: k.now, Blocked: k.blockedNames()}
	}
	return nil
}

// RunFor executes events until virtual time advances past the given horizon,
// then stops. Events at exactly now+d still run.
func (k *Kernel) RunFor(d time.Duration) error {
	k.schedule(k.now+d, func() { k.Stop() })
	return k.Run()
}
