// Package leakcheck verifies that finished simulated worlds leave nothing
// behind: no goroutine beyond a baseline count, and a bounded live heap.
// A world whose kernel was not closed keeps its parked processes' goroutines,
// and through them every device buffer it allocated, so both numbers catch
// a missing sim.Kernel.Close.
//
// A test package runs the check over its whole suite from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// and a single test checks one step with Check.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle bounds how long Check waits for goroutines that are already on
// their way out (a process goroutine that has handed back the scheduler
// token still has a few instructions to run before it exits).
const settle = 2 * time.Second

// maxDump caps the goroutine dump attached to a failure.
const maxDump = 32 << 10

// SuiteHeapMB bounds the live heap Main accepts once a suite has ended.
// What a test binary legitimately keeps (package-level tables, the runtime's
// own structures) is a few MB; one world left behind is tens to thousands.
const SuiteHeapMB = 16

// Main runs the package's tests, then runs teardown (in order) and, if the
// tests passed, Check against the goroutine count TestMain started with
// and SuiteHeapMB. It exits the test binary with the combined result.
func Main(m *testing.M, teardown ...func()) {
	base := runtime.NumGoroutine()
	code := m.Run()
	for _, f := range teardown {
		f()
	}
	if code == 0 {
		if err := Check(base, SuiteHeapMB); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck: after all tests:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check collects garbage and reports an error if more than base goroutines
// are alive or the live heap exceeds maxHeapMB. The error carries a
// goroutine dump, which names the parked processes that outlived their
// world.
func Check(base int, maxHeapMB float64) error {
	deadline := time.Now().Add(settle)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	n := runtime.NumGoroutine()
	if n <= base && heapMB <= maxHeapMB {
		return nil
	}
	buf := make([]byte, maxDump)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Errorf("%d goroutines alive (baseline %d), live heap %.1f MB (bound %.0f MB)\n%s",
		n, base, heapMB, maxHeapMB, buf)
}
