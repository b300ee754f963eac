package sim

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"mpixccl/internal/leakcheck"
)

// noLeak requires the goroutine count back at base: Close must have ended
// every process goroutine of the world.
func noLeak(t *testing.T, base int) {
	t.Helper()
	if err := leakcheck.Check(base, leakcheck.SuiteHeapMB); err != nil {
		t.Fatal(err)
	}
}

// requireClosed checks the kernel holds no process and no pending event.
func requireClosed(t *testing.T, k *Kernel) {
	t.Helper()
	if len(k.procs) != 0 || len(k.queue) != 0 || k.alive != 0 {
		t.Fatalf("after Close: %d procs, %d queued events, alive %d; want none",
			len(k.procs), len(k.queue), k.alive)
	}
}

func TestCloseEndsParkedDaemon(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan[int](k, 0)
	served, unwound := 0, false
	k.SpawnDaemon("server", func(p *Proc) {
		defer func() { unwound = true }()
		for {
			ch.Recv(p)
			served++
		}
	})
	k.Spawn("client", func(p *Proc) { ch.Send(p, 1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 1 || unwound {
		t.Fatalf("after Run: served %d, unwound %v; want 1, false", served, unwound)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if !unwound {
		t.Fatal("the daemon's deferred call did not run during Close")
	}
	requireClosed(t, k)
	noLeak(t, base)
}

func TestCloseAfterDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ev := NewEvent(k)
	resumed, unwound := 0, 0
	for i := 0; i < 3; i++ {
		k.Spawn("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			ev.Wait(p)
			resumed++
		})
	}
	var de *DeadlockError
	if err := k.Run(); !errors.As(err, &de) || len(de.Blocked) != 3 {
		t.Fatalf("Run = %v, want a deadlock naming 3 ranks", err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || unwound != 3 {
		t.Fatalf("resumed %d, unwound %d; want 0, 3", resumed, unwound)
	}
	requireClosed(t, k)
	noLeak(t, base)
}

func TestCloseNeverStartedProc(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ran := false
	k.Spawn("idle", func(p *Proc) { ran = true })
	k.SpawnDaemon("idle-daemon", func(p *Proc) { ran = true })
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a process that never started ran its function during Close")
	}
	requireClosed(t, k)
	noLeak(t, base)

	// Spawning on a closed kernel starts nothing at all.
	p := k.Spawn("late", func(p *Proc) { ran = true })
	if ran || len(k.procs) != 0 || k.alive != 0 {
		t.Fatal("Spawn on a closed kernel registered or ran a process")
	}
	noLeak(t, base)
	if p.Name() != "late" {
		t.Fatalf("Spawn returned %q", p.Name())
	}
}

// A process's deferred calls run while it unwinds. One that fires an event
// must not revive the waiter; one that parks unwinds in turn, and the
// deferred calls below it still run.
func TestCloseUnwindFiresAndParks(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	block, wake := NewEvent(k), NewEvent(k)
	var outer, afterSleep, spawnedRan, bResumed, bUnwound bool
	k.Spawn("a", func(p *Proc) {
		defer func() { outer = true }()
		defer func() {
			p.Sleep(us)
			afterSleep = true
		}()
		defer k.Spawn("spawned-while-unwinding", func(*Proc) { spawnedRan = true })
		defer wake.Fire()
		block.Wait(p)
	})
	k.Spawn("b", func(p *Proc) {
		defer func() { bUnwound = true }()
		wake.Wait(p)
		bResumed = true
	})
	if err := k.Run(); err == nil {
		t.Fatal("Run: want a deadlock")
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if !wake.Fired() {
		t.Fatal("the deferred Fire did not run")
	}
	if afterSleep || !outer {
		t.Fatalf("afterSleep %v, outer %v: a defer that parks must unwind and the rest still run", afterSleep, outer)
	}
	if spawnedRan || bResumed || !bUnwound {
		t.Fatalf("spawnedRan %v, bResumed %v, bUnwound %v; want false, false, true", spawnedRan, bResumed, bUnwound)
	}
	requireClosed(t, k)
	noLeak(t, base)
}

func TestCloseAfterStop(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(us)
			ticks++
		}
	})
	if err := k.RunFor(10 * us); err != nil {
		t.Fatal(err)
	}
	stopped := ticks
	if stopped == 0 || len(k.queue) == 0 {
		t.Fatalf("after RunFor: %d ticks, %d queued; want ticks and a pending wake-up", ticks, len(k.queue))
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if ticks != stopped {
		t.Fatalf("Close let the ticker run: %d ticks, stopped at %d", ticks, stopped)
	}
	requireClosed(t, k)
	noLeak(t, base)
}

func TestCloseTwice(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	unwound := 0
	k.SpawnDaemon("d", func(p *Proc) {
		defer func() { unwound++ }()
		ev.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := k.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if unwound != 1 {
		t.Fatalf("the daemon unwound %d times, want 1", unwound)
	}
}

func TestCloseDuringRunAndRunAfterClose(t *testing.T) {
	k := NewKernel()
	var inside error
	after := false
	k.Spawn("closer", func(p *Proc) {
		inside = k.Close()
		p.Sleep(us)
		after = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if inside == nil {
		t.Fatal("Close during Run returned nil")
	}
	if !after || k.closed {
		t.Fatal("Close during Run changed the kernel")
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// A panic other than the unwind sentinel must still crash the program,
// whether a process raises it while running or while Close unwinds it.
// The crashing world runs in a child test process.
func TestNonSentinelPanicCrashes(t *testing.T) {
	if mode := os.Getenv("SIM_CRASH_MODE"); mode != "" {
		k := NewKernel()
		ev := NewEvent(k)
		k.Spawn("crasher", func(p *Proc) {
			if mode == "run" {
				panic("model bug while running")
			}
			defer func() { panic("model bug while unwinding") }()
			ev.Wait(p)
		})
		_ = k.Run()
		_ = k.Close()
		t.Fatal("the world survived a non-sentinel panic")
	}
	for mode, want := range map[string]string{
		"run":    "model bug while running",
		"unwind": "model bug while unwinding",
	} {
		t.Run(mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestNonSentinelPanicCrashes$")
			cmd.Env = append(os.Environ(), "SIM_CRASH_MODE="+mode)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("child exited 0; output:\n%s", out)
			}
			if !strings.Contains(string(out), "panic: "+want) {
				t.Fatalf("child output lacks %q:\n%s", "panic: "+want, out)
			}
		})
	}
}
