package omb

import (
	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// runPureCCLCollective drives the vendor library directly — the dashed
// "Pure NCCL/MSCCL" lines extracted from OMB's CCL benchmarks.
func runPureCCLCollective(cfg *Config, w *world, nranks int, body func(d *collDriver)) error {
	defer w.k.Close()
	kind, err := core.ResolveBackend(cfg.Backend, w.sys.Device(0).Kind)
	if err != nil {
		return err
	}
	comms, err := core.NewBackendComms(kind, w.fab, w.sys.Devices()[:nranks])
	if err != nil {
		return err
	}
	if cfg.Metrics != nil {
		comms[0].SetMetrics(cfg.Metrics)
	}
	bar := sim.NewBarrier(w.k, nranks)
	counter := sim.NewCounter(w.k, nranks)
	for r := 0; r < nranks; r++ {
		r := r
		cc := comms[r]
		w.k.Spawn("omb-rank", func(p *sim.Proc) {
			s := cc.Device().NewStream()
			body(&collDriver{
				do: func(op Collective, send, recv *device.Buffer, count int) {
					pureCCLOp(cc, s, p, op, send, recv, count)
				},
				barrier: func() { bar.Wait(p) },
				proc:    p, dev: cc.Device(), rank: r,
			})
			counter.Done()
		})
	}
	return w.k.Run()
}

// pureCCLOp issues one blocking collective on the raw CCL. Operations the
// CCL does not provide (alltoall) use group send/recv, as OMB's NCCL
// benchmarks do.
func pureCCLOp(cc *ccl.Comm, s *device.Stream, p *sim.Proc, op Collective, send, recv *device.Buffer, count int) {
	dt := ccl.Float32
	bytes := int64(count) * 4
	var err error
	switch op {
	case Allreduce:
		err = cc.AllReduce(send.Slice(0, bytes), recv.Slice(0, bytes), count, dt, ccl.Sum, s)
	case Reduce:
		err = cc.Reduce(send.Slice(0, bytes), recv.Slice(0, bytes), count, dt, ccl.Sum, 0, s)
	case Bcast:
		err = cc.Broadcast(send.Slice(0, bytes), send.Slice(0, bytes), count, dt, 0, s)
	case Allgather:
		err = cc.AllGather(send.Slice(0, bytes), recv.Slice(0, bytes*int64(cc.Size())), count, dt, s)
	case Alltoall:
		if err = cc.GroupStart(); err != nil {
			break
		}
		for peer := 0; peer < cc.Size(); peer++ {
			if peer == cc.Rank() {
				continue
			}
			if err = cc.Send(send.Slice(int64(peer)*bytes, bytes), count, dt, peer, s); err != nil {
				break
			}
			if err = cc.Recv(recv.Slice(int64(peer)*bytes, bytes), count, dt, peer, s); err != nil {
				break
			}
		}
		if err == nil {
			err = cc.GroupEnd()
		}
	case Gather, Scatter:
		// Synthesized at root via group send/recv, like alltoall.
		if err = cc.GroupStart(); err != nil {
			break
		}
		root := 0
		if cc.Rank() == root {
			for peer := 0; peer < cc.Size(); peer++ {
				if peer == root {
					continue
				}
				if op == Gather {
					err = cc.Recv(recv.Slice(int64(peer)*bytes, bytes), count, dt, peer, s)
				} else {
					err = cc.Send(send.Slice(int64(peer)*bytes, bytes), count, dt, peer, s)
				}
				if err != nil {
					break
				}
			}
		} else if op == Gather {
			err = cc.Send(send.Slice(0, bytes), count, dt, root, s)
		} else {
			err = cc.Recv(recv.Slice(0, bytes), count, dt, root, s)
		}
		if err == nil {
			err = cc.GroupEnd()
		}
	}
	if err != nil {
		panic(err)
	}
	s.Synchronize(p)
}
