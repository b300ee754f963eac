package main

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/elem"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// directSpec names the op the ccl.direct_host_ms_p50 probe calls
// straight on ccl.Comm, without the core layer: the same op and size as
// the workload's timed op, so core's overhead is the difference.
type directSpec struct {
	op    string // "allreduce" or "alltoall"
	count int    // float32 elements per rank (per block for alltoall)
}

// directOps is how many timed ops the direct probe runs.
const directOps = 8

// probeLayers runs the traced world's stand-alone probes after the world
// is gone: elem.Reduce alone, CCL communicator creation, the compiler's
// plan search, and the workload's op called straight on the CCL.
func probeLayers(w *workload, layers map[string]float64, rep *report, spans *spanLog) error {
	layers["elem.reduce_gb_per_s"] = reduceRate()
	for _, k := range []string{"ccl.direct_host_ms_p50", "comp.search_ms", "comp.residual_pct"} {
		layers[k] = 0
	}

	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", w.nodes)
	if err != nil {
		return err
	}
	fab := fabric.New(k, sys)
	kind, err := core.ResolveBackend(core.Auto, sys.Device(0).Kind)
	if err != nil {
		return err
	}
	ci := spans.open("comm.init", -1, map[string]string{"probe": "direct"})
	t := time.Now()
	comms, err := core.NewBackendComms(kind, fab, sys.Devices())
	if err != nil {
		return err
	}
	layers["ccl.comm_init_ms"] = float64(time.Since(t)) / float64(time.Millisecond)
	spans.close(ci)
	if w.direct == nil {
		return nil
	}
	if w.direct.op == "alltoall" {
		// The compiler's search for the timed op's shape, on a fresh
		// communicator so nothing is cached; its modeled cost against the
		// simulated latency is the cost model's residual.
		ps := spans.open("plan.search", -1, nil)
		t := time.Now()
		_, cost, err := comms[0].PlanFor("alltoall", 4*int64(w.direct.count), 0, "auto")
		if err != nil {
			return err
		}
		layers["comp.search_ms"] = float64(time.Since(t)) / float64(time.Millisecond)
		spans.close(ps)
		virt := quantile(rep.VirtUS, 0.5)
		layers["comp.residual_pct"] = (virt - cost*1e6) / virt * 100
	}
	ms, err := directOp(k, comms, w.direct, spans)
	if err != nil {
		return err
	}
	layers["ccl.direct_host_ms_p50"] = ms
	return nil
}

// directOp runs directOps timed ops (after one warm-up) on raw CCL
// communicators and returns the median host time per op, measured like
// the core ops: first rank in to last rank out. The payload is zeros and
// goes unchecked; the probe measures cost only.
func directOp(k *sim.Kernel, comms []*ccl.Comm, d *directSpec, spans *spanLog) (float64, error) {
	n := len(comms)
	bar := sim.NewBarrier(k, n)
	var t0 [directOps + 1]time.Time
	var t1 [directOps + 1]time.Time
	var out [directOps + 1]int
	var firstErr error
	for r := range n {
		cc := comms[r]
		k.Spawn(fmt.Sprintf("direct%d", r), func(p *sim.Proc) {
			s := cc.Device().NewStream()
			bytes := 4 * int64(d.count)
			if d.op == "alltoall" {
				bytes *= int64(n)
			}
			send, recv := cc.Device().MustMalloc(bytes), cc.Device().MustMalloc(bytes)
			for i := range directOps + 1 {
				bar.Wait(p)
				if t0[i].IsZero() {
					t0[i] = time.Now()
				}
				if err := d.call(cc, s, send, recv); err != nil && firstErr == nil {
					firstErr = err
				}
				s.Synchronize(p)
				if out[i]++; out[i] == n {
					t1[i] = time.Now()
				}
				bar.Wait(p)
			}
		})
	}
	if err := k.Run(); err != nil {
		return 0, err
	}
	if firstErr != nil {
		return 0, firstErr
	}
	var ms []float64
	for i := 1; i <= directOps; i++ {
		ms = append(ms, float64(t1[i].Sub(t0[i]))/float64(time.Millisecond))
		spans.add("op", i-1, -1, t0[i], t1[i], map[string]string{"kind": d.op, "probe": "direct"})
	}
	return quantile(ms, 0.5), nil
}

// call enqueues the op on the rank's stream.
func (d *directSpec) call(cc *ccl.Comm, s *device.Stream, send, recv *device.Buffer) error {
	if d.op == "alltoall" {
		return cc.Alltoall(send, recv, d.count, ccl.Float32, "auto", s)
	}
	return cc.AllReduce(send, recv, d.count, ccl.Float32, ccl.Sum, s)
}

// reduceRate times elem.Reduce alone on float32 sums at allreduce-large's
// ring segment size (4 MiB over 16 ranks) and returns GB/s of payload
// reduced.
func reduceRate() float64 {
	const count = allreduceCount / 16
	dst, src := make([]byte, 4*count), make([]byte, 4*count)
	var calls int
	t := time.Now()
	for time.Since(t) < 200*time.Millisecond {
		elem.Reduce(elem.OpSum, elem.F32, dst, src, count)
		calls++
	}
	return float64(calls) * 4 * count / time.Since(t).Seconds() / 1e9
}
