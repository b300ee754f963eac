package sim

import "time"

// Proc is a simulated process: a goroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own function
// (the fn passed to Kernel.Spawn); they are not safe to call from outside
// the simulation.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	resume  chan struct{}
	done    *Event
	dead    bool
	daemon  bool
	blocked string
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// ID returns the process id, unique within its kernel.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done returns an event fired when the process function returns.
func (p *Proc) Done() *Event { return p.done }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park blocks the process until another event resumes it. reason is shown in
// deadlock reports. The parking goroutine keeps the scheduler token and
// dispatches further events itself; it only blocks on its resume channel
// when the token moves to another process (see Kernel.dispatch). On a
// closed kernel park never returns: it raises the unwind sentinel, whether
// the process parks during teardown or is woken by Close (see Kernel.Close).
func (p *Proc) park(reason string) {
	if p.k.closed {
		panic(ErrClosed)
	}
	p.blocked = reason
	if p.k.dispatch(p) {
		<-p.resume
		if p.k.closed {
			panic(ErrClosed)
		}
	}
	p.blocked = ""
}

// unpark schedules the process to resume at the current virtual time.
func (p *Proc) unpark() {
	k := p.k
	k.scheduleProc(k.now, p)
}

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield the processor (the process resumes at the same virtual instant,
// after already-queued events). When no other process is runnable earlier,
// the sleeping process re-activates itself without any goroutine hand-off.
func (p *Proc) Sleep(d time.Duration) {
	k := p.k
	if d < 0 {
		d = 0
	}
	k.scheduleProc(k.now+d, p)
	p.park("sleep")
}

// Yield lets other events scheduled for the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// Join blocks until q's function has returned. Joining an already-finished
// process returns immediately.
func (p *Proc) Join(q *Proc) { q.done.Wait(p) }
