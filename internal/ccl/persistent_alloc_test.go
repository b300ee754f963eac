//go:build !race

// The race detector instruments allocations, so the zero-alloc pins in
// this file only hold in a normal build; check.sh runs them un-raced.

package ccl

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// The persistent-collective contract this PR exists for: after the
// warm-up waves have materialized the schedule's sub-buffer views,
// segment tables, scratch pipes, fabric routes, and waiter-slice
// capacities, a steady-state Start → [Pready…] → Wait wave performs ZERO
// heap allocations on any rank — the stream work item, completion
// events, sender latches, partition gate, and inter-node engine are all
// recycled. The test measures the global malloc count across whole waves
// (every rank parked at a barrier between reads), with GC disabled so
// background collection cannot perturb the counter, and on one P: with
// several, the Go runtime itself allocates at unpredictable points when a
// rank goroutine lands on a P that has not yet hosted that work (a new
// timer-heap slot for the background scavenger, or runtime.malg backing a
// new M). Those objects are not the schedule's, and the simulation is
// serialized by its scheduler token anyway, so one P measures the same
// waves without the runtime noise.

func measureWaveAllocs(t *testing.T, nodes, nranks int, algo Algorithm,
	init func(c *Comm, s *device.Stream) (*PersistentColl, error)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmWaves = 3
	const measured = 8
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", nodes)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	comms, err := NewComms(fab, sys.Devices()[:nranks], testBackend())
	if err != nil {
		t.Fatal(err)
	}
	bar := sim.NewBarrier(k, nranks)
	var mallocs [warmWaves + measured]uint64
	for r := range comms {
		r := r
		c := comms[r]
		k.Spawn("rank", func(p *sim.Proc) {
			s := c.Device().NewStream()
			c.SetAlgorithm(algo, 0)
			po, err := init(c, s)
			if err != nil {
				t.Errorf("init: %v", err)
				return
			}
			bar.Wait(p)
			for w := 0; w < warmWaves+measured; w++ {
				if err := po.Do(p); err != nil {
					t.Errorf("wave %d: %v", w, err)
					return
				}
				bar.Wait(p)
				if r == 0 {
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					mallocs[w] = ms.Mallocs
				}
				bar.Wait(p)
			}
		})
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for w := warmWaves; w < warmWaves+measured; w++ {
		if d := mallocs[w] - mallocs[w-1]; d != 0 {
			t.Errorf("steady-state wave %d allocated %d objects across %d ranks; want 0",
				w, d, nranks)
		}
	}
}

// measurePersistentWaveAllocs keeps the historical allreduce entry point.
func measurePersistentWaveAllocs(t *testing.T, nodes, nranks, count, parts int, algo Algorithm) {
	t.Helper()
	measureWaveAllocs(t, nodes, nranks, algo, func(c *Comm, s *device.Stream) (*PersistentColl, error) {
		send := c.Device().MustMalloc(int64(count) * 4)
		recv := c.Device().MustMalloc(int64(count) * 4)
		return c.AllReduceInitPartitioned(send, recv, count, Float32, Sum, parts, s)
	})
}

func TestPersistentSteadyStateAllocFreeTree(t *testing.T) {
	measurePersistentWaveAllocs(t, 1, 4, 1024, 1, AlgoTree)
}

func TestPersistentSteadyStateAllocFreeRing(t *testing.T) {
	measurePersistentWaveAllocs(t, 1, 4, 256<<10/4, 1, AlgoFlatRing)
}

func TestPersistentSteadyStateAllocFreeHier(t *testing.T) {
	measurePersistentWaveAllocs(t, 2, 16, 256<<10/4, 1, AlgoHierarchical)
}

func TestPersistentSteadyStateAllocFreePartitionedHier(t *testing.T) {
	measurePersistentWaveAllocs(t, 2, 16, 256<<10/4, 8, AlgoHierarchical)
}

func TestPersistentSteadyStateAllocFreePartitionedTree(t *testing.T) {
	measurePersistentWaveAllocs(t, 1, 4, 1024, 4, AlgoTree)
}

// The same zero-alloc contract for the persistent broadcast handles (tree
// and chunked hierarchical fan-out, including the root-substituted rep
// group with root ≠ node leader, which must be memoized).
func TestPersistentSteadyStateAllocFreeBcastTree(t *testing.T) {
	measureWaveAllocs(t, 1, 4, AlgoTree, func(c *Comm, s *device.Stream) (*PersistentColl, error) {
		buf := c.Device().MustMalloc(4096 * 4)
		return c.BcastInit(buf, buf, 4096, Float32, 2, s)
	})
}

func TestPersistentSteadyStateAllocFreeBcastHier(t *testing.T) {
	measureWaveAllocs(t, 2, 16, AlgoHierarchical, func(c *Comm, s *device.Stream) (*PersistentColl, error) {
		buf := c.Device().MustMalloc(64 << 10)
		return c.BcastInit(buf, buf, 64<<10/4, Float32, 3, s)
	})
}

// ...and the persistent allgather handles: the ring's resident sender
// daemon and the hierarchical leader's resident block-set forwarder.
func TestPersistentSteadyStateAllocFreeAllgatherRing(t *testing.T) {
	measureWaveAllocs(t, 1, 4, AlgoFlatRing, func(c *Comm, s *device.Stream) (*PersistentColl, error) {
		send := c.Device().MustMalloc(16 << 10)
		recv := c.Device().MustMalloc(4 * 16 << 10)
		return c.AllgatherInit(send, recv, 16<<10/4, Float32, s)
	})
}

func TestPersistentSteadyStateAllocFreeAllgatherHier(t *testing.T) {
	measureWaveAllocs(t, 2, 16, AlgoHierarchical, func(c *Comm, s *device.Stream) (*PersistentColl, error) {
		send := c.Device().MustMalloc(16 << 10)
		recv := c.Device().MustMalloc(16 * 16 << 10)
		return c.AllgatherInit(send, recv, 16<<10/4, Float32, s)
	})
}
