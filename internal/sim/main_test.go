package sim

import (
	"testing"

	"mpixccl/internal/leakcheck"
)

// TestMain closes every kernel the suite built, then requires that no
// goroutine and almost no heap is left: Close must reap every world shape
// the tests leave behind (parked daemons, deadlocked ranks, stopped runs,
// watchdog timers) without any test closing its own kernel.
func TestMain(m *testing.M) {
	var kernels []*Kernel
	testHookNewKernel = func(k *Kernel) { kernels = append(kernels, k) }
	leakcheck.Main(m, func() {
		for _, k := range kernels {
			if err := k.Close(); err != nil {
				panic(err)
			}
		}
		kernels = nil
	})
}
