// World teardown. A kernel whose Run has returned may still hold parked
// processes: daemons (device streams, heartbeats, persistent senders,
// WaitAny watchers) and, after a deadlock or Stop, ordinary ones. Each is a
// goroutine blocked on its resume channel, and each such goroutine keeps
// the whole world reachable. Close ends them.
package sim

import (
	"errors"
	"sort"
)

// ErrClosed is returned by Run on a closed kernel. It is also the value a
// process unwinds with while Close ends it; processes must not recover it.
var ErrClosed = errors.New("sim: kernel closed")

// Close ends the world: it drops every pending event and ends every live
// process, so that no goroutine is left holding the kernel and the world's
// memory becomes collectable. Processes end one at a time, in spawn order,
// and the kernel stays single-threaded throughout. A woken process unwinds
// by panicking with ErrClosed out of the blocking call it was parked in;
// its deferred calls run, and any of them that blocks unwinds the same way.
// A process that was spawned but never started does not run at all.
//
// Close after Close is a no-op. Close from inside Run (that is, from a
// process) returns an error and leaves the kernel untouched.
func (k *Kernel) Close() error {
	if k.running {
		return errors.New("sim: Close during Run")
	}
	if k.closed {
		return nil
	}
	k.closed = true
	k.queue = nil
	ids := make([]int, 0, len(k.procs))
	for id := range k.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Processes spawned while another unwinds are born dead (see Spawn),
	// so this set is final: each resumed process removes only itself.
	for _, id := range ids {
		k.procs[id].resume <- struct{}{}
		<-k.idle
	}
	// Unwinding may have scheduled wake-ups or timers; none will run.
	k.queue = nil
	return nil
}

// run calls fn, absorbing the unwind of a closed kernel. Any other panic,
// including one raised while unwinding, propagates and crashes the program
// as it would without Close.
func (p *Proc) run(fn func(*Proc)) {
	defer func() {
		if p.k.closed {
			if r := recover(); r != nil && r != ErrClosed {
				panic(r)
			}
		}
	}()
	fn(p)
}
