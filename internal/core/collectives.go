package core

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/trace"
)

// The MPI-standard collective API of the xCCL layer. Every method keeps
// exact MPI semantics (blocking, standard buffers, mpi datatypes/ops) and
// transparently picks the MPI or CCL path per the dispatch decision.

// The dispatch pipeline below is shared by one-shot calls (run) and
// persistent waves (PersistentOp.Start/Wait; see persistent.go for the two
// intentional differences): admit → breakerGate → syncEnv + the CCL
// execution → conclude.

// run executes one collective through the decided path, handling the
// CCL-error fallback (§1.2 advantage 3), the resilience policy (transient
// retries, circuit breaker), statistics, trace records, and metric
// aggregation.
func (x *Comm) run(op OpKind, bytes int64, d decision,
	cclPath func(cc *ccl.Comm, s *device.Stream) error, mpiPath func()) {
	if x.admit(op) != nil {
		return
	}
	start := x.mpi.Proc().Now()
	ran := x.breakerGate(op, d.useCCL)
	var err error
	if ran {
		err = x.runResilient(op, cclPath)
	}
	x.conclude(op, bytes, start, ran, err, mpiPath)
}

// admit runs the admission checks, in order: fenced rank → dead or revoked
// handle → stale epoch → heartbeat-confirmed dead peer → peer across an
// active cut. A refused operation no-ops; the verdict is latched on the
// handle (first verdict wins) and returned.
func (x *Comm) admit(op OpKind) error {
	// A fenced rank (minority side of a partition) lost the quorum vote and
	// must Rejoin, not dispatch.
	if _, bad := x.rt.fenced[x.mpi.WorldRank()]; bad {
		return x.latch(ErrFenced)
	}
	// A dead rank must stop participating (its peers' watchdogs already
	// wrote it off), and a revoked communicator accepts no new collectives
	// until the survivors Shrink it.
	if x.dead || x.rt.revoked[x.mpi.ContextID()] {
		return x.latch(ErrCommRevoked)
	}
	// A Grow superseded this member set: interleaving old-epoch
	// collectives with the grown world would remix the two sides of a
	// healed partition.
	if x.rt.staleCtx[x.mpi.ContextID()] {
		return x.latch(ErrStaleEpoch)
	}
	// Proactive fast-fail: a peer the heartbeat detector has confirmed
	// dead would stall the operation until the watchdog fires; surface the
	// same ErrRankDead verdict now instead of paying the timeout.
	if err := x.suspectErr(op); err != nil {
		x.noteRankFailure(op, err)
		return err
	}
	// Partition fast-fail: a member on the far side of an active cut makes
	// the operation unrunnable; surface ErrUnreachable in bounded time so
	// the caller escalates to the quorum Shrink instead of timing out.
	if err := x.unreachableErr(op); err != nil {
		x.notePartition(op, err)
		return err
	}
	return nil
}

// latch records err as the handle's failure unless one is already set, and
// returns the handle's failure.
func (x *Comm) latch(err error) error {
	if x.failure == nil {
		x.failure = err
	}
	return x.failure
}

// breakerGate reports whether a CCL decision may dispatch to the CCL: an
// open (backend, op) breaker demotes it to MPI without paying the CCL
// failure.
func (x *Comm) breakerGate(op OpKind, useCCL bool) bool {
	if useCCL && !x.rt.allowCCL(x, op) {
		x.rt.stats.BreakerSkips++
		x.rt.stats.Fallbacks.Error++
		x.rt.countFallback(op, "breaker_open")
		return false
	}
	return useCCL
}

// syncEnv brings the CCL communicator in line with the runtime before an
// execution: the watchdog deadline may have been re-armed, and while a
// link-degradation window is active the transfers drive fewer fabric
// channels, so concurrent flows keep a fair share of the shrunken pool
// (the cap clears once the window passes).
func (x *Comm) syncEnv(cc *ccl.Comm) {
	if wd := x.rt.watchdogTimeout(); wd != cc.Watchdog() {
		cc.SetWatchdog(wd)
	}
	if x.rt.policy.Disabled {
		return
	}
	if lf, ok := x.mpi.Job().Fabric().DegradedNow(x.mpi.Proc().Now()); ok {
		budget := lf.ChannelCap
		if budget <= 0 {
			budget = (cc.Config().Channels + 1) / 2
		}
		cc.SetChannelCap(budget)
	} else if cc.ChannelCap() != 0 {
		cc.SetChannelCap(0)
	}
}

// cclFailed handles a failed CCL execution and reports whether the rank
// must abandon the operation. A fail-stop (ErrRankDead) or partition
// (ErrUnreachable) verdict is latched for ULFM-style recovery or the
// quorum vote: retrying cannot succeed and the MPI fallback would block on
// the same peer, so neither the retry loop nor the breaker reacts. Any
// other error feeds the breaker and the fallback counters; the caller then
// runs the MPI path.
func (x *Comm) cclFailed(op OpKind, err error) bool {
	if errors.Is(err, ccl.ErrRankDead) {
		x.noteRankFailure(op, err)
		return true
	}
	if errors.Is(err, ccl.ErrUnreachable) {
		x.notePartition(op, err)
		return true
	}
	x.rt.breakerFailure(x, op)
	x.rt.stats.Fallbacks.Error++
	x.rt.countFallback(op, "ccl_error")
	return false
}

// conclude finishes an operation that started at start: ran reports
// whether the CCL path executed and err its verdict. Success credits the
// breaker; a failure is handled by cclFailed and, unless abandoned, the
// operation re-executes on the MPI path, as does one that never ran on the
// CCL. A completed operation emits its trace record and metric aggregates;
// an abandoned one returns its verdict and emits neither.
func (x *Comm) conclude(op OpKind, bytes int64, start time.Duration, ran bool, err error, mpiPath func()) error {
	path := PathMPI
	switch {
	case ran && err == nil:
		x.rt.breakerSuccess(x, op)
		x.rt.stats.CCLOps++
		path = PathCCL
	case ran && x.cclFailed(op, err):
		return err
	default:
		x.rt.stats.MPIOps++
		mpiPath()
	}
	x.rt.emit(trace.Record{
		Op: string(op), Path: path.String(), Backend: string(x.rt.kind),
		Rank: x.Rank(), Bytes: bytes,
		Start: start, Duration: x.mpi.Proc().Now() - start,
	})
	return nil
}

// Allreduce combines sendBuf into recvBuf across all ranks with op.
// Built-in CCL mapping: xcclAllReduce (§3.2).
func (x *Comm) Allreduce(sendBuf, recvBuf *device.Buffer, count int, dt mpi.Datatype, op mpi.Op) {
	bytes := int64(count) * int64(dt.Size())
	d := x.decide(OpAllreduce, bytes, dt, &op, sendBuf, recvBuf)
	x.run(OpAllreduce, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			cc.SetAlgorithm(d.algo, d.chunk)
			return cc.AllReduce(sendBuf, recvBuf, count, d.dt, d.op, s)
		},
		func() { x.mpi.Allreduce(sendBuf, recvBuf, count, dt, op) })
}

// Bcast broadcasts count elements from root. Built-in: xcclBroadcast.
func (x *Comm) Bcast(buf *device.Buffer, count int, dt mpi.Datatype, root int) {
	bytes := int64(count) * int64(dt.Size())
	d := x.decide(OpBcast, bytes, dt, nil, buf)
	x.run(OpBcast, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			cc.SetAlgorithm(d.algo, d.chunk)
			return cc.Broadcast(buf, buf, count, d.dt, root, s)
		},
		func() { x.mpi.Bcast(buf, count, dt, root) })
}

// Reduce combines sendBuf across ranks into root's recvBuf. Built-in:
// xcclReduce.
func (x *Comm) Reduce(sendBuf, recvBuf *device.Buffer, count int, dt mpi.Datatype, op mpi.Op, root int) {
	bytes := int64(count) * int64(dt.Size())
	bufs := []*device.Buffer{sendBuf}
	if x.Rank() == root {
		bufs = append(bufs, recvBuf)
	}
	d := x.decide(OpReduce, bytes, dt, &op, bufs...)
	// Non-root recv buffers may be nil in MPI; CCL needs a target only at
	// root, so pass sendBuf elsewhere (it is ignored).
	target := recvBuf
	if target == nil {
		target = sendBuf
	}
	x.run(OpReduce, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			cc.SetAlgorithm(d.algo, d.chunk)
			return cc.Reduce(sendBuf, target, count, d.dt, d.op, root, s)
		},
		func() { x.mpi.Reduce(sendBuf, recvBuf, count, dt, op, root) })
}

// Allgather concatenates every rank's sendBuf into recvBuf. Built-in:
// xcclAllGather.
func (x *Comm) Allgather(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer) {
	bytes := int64(count) * int64(dt.Size())
	d := x.decide(OpAllgather, bytes, dt, nil, sendBuf, recvBuf)
	x.run(OpAllgather, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			cc.SetAlgorithm(d.algo, d.chunk)
			return cc.AllGather(sendBuf, recvBuf, count, d.dt, s)
		},
		func() { x.mpi.Allgather(sendBuf, count, dt, recvBuf) })
}

// ReduceScatterBlock reduces count×n elements and scatters block r to rank
// r. Built-in: xcclReduceScatter.
func (x *Comm) ReduceScatterBlock(sendBuf, recvBuf *device.Buffer, count int, dt mpi.Datatype, op mpi.Op) {
	bytes := int64(count) * int64(dt.Size())
	d := x.decide(OpReduceScatter, bytes, dt, &op, sendBuf, recvBuf)
	x.run(OpReduceScatter, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			cc.SetAlgorithm(d.algo, d.chunk)
			return cc.ReduceScatter(sendBuf, recvBuf, count, d.dt, d.op, s)
		},
		func() { x.mpi.ReduceScatterBlock(sendBuf, recvBuf, count, dt, op) })
}

// Barrier always runs on the MPI path: a zero-byte synchronization gains
// nothing from a CCL kernel launch.
func (x *Comm) Barrier() {
	x.rt.stats.MPIOps++
	x.rt.opts.Metrics.Counter(trace.MetricOps,
		"Collective operations by dispatch path.",
		metrics.Labels{"op": "barrier", "path": PathMPI.String(),
			"backend": string(x.rt.kind), "size_bucket": metrics.SizeBucketLabel(0)}).Inc()
	x.mpi.Barrier()
}

// The send-recv-based collectives of §3.3: CCLs ship only five built-ins,
// so the layer synthesizes the rest from xcclSend/xcclRecv inside group
// calls, exactly as Listing 1 does for AlltoAllv.

// Alltoall exchanges count-element blocks between all rank pairs.
func (x *Comm) Alltoall(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer) {
	bytes := int64(count) * int64(dt.Size())
	d := x.decide(OpAlltoall, bytes, dt, nil, sendBuf, recvBuf)
	n := x.Size()
	blk := bytes
	x.run(OpAlltoall, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			if d.plan != "" {
				return cc.Alltoall(sendBuf, recvBuf, count, d.dt, d.plan, s)
			}
			if err := cc.GroupStart(); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if r == x.Rank() {
					copy(recvBuf.Bytes()[int64(r)*blk:(int64(r)+1)*blk], sendBuf.Bytes()[int64(r)*blk:(int64(r)+1)*blk])
					continue
				}
				if err := cc.Send(sendBuf.Slice(int64(r)*blk, blk), count, d.dt, r, s); err != nil {
					return err
				}
				if err := cc.Recv(recvBuf.Slice(int64(r)*blk, blk), count, d.dt, r, s); err != nil {
					return err
				}
			}
			return cc.GroupEnd()
		},
		func() { x.mpi.Alltoall(sendBuf, count, dt, recvBuf) })
}

// Alltoallv is the paper's Listing 1: per-peer counts and displacements
// over one xcclGroupStart/End.
func (x *Comm) Alltoallv(sendBuf *device.Buffer, sendCounts, sdispls []int, dt mpi.Datatype,
	recvBuf *device.Buffer, recvCounts, rdispls []int) {
	var maxBytes int64
	esz := int64(dt.Size())
	for _, c := range sendCounts {
		if b := int64(c) * esz; b > maxBytes {
			maxBytes = b
		}
	}
	d := x.decide(OpAlltoallv, maxBytes, dt, nil, sendBuf, recvBuf)
	n := x.Size()
	x.run(OpAlltoallv, maxBytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			if d.plan != "" {
				return cc.Alltoallv(sendBuf, sendCounts, sdispls, recvBuf, recvCounts, rdispls, d.dt, d.plan, s)
			}
			if err := cc.GroupStart(); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if r == x.Rank() {
					so, ln := int64(sdispls[r])*esz, int64(sendCounts[r])*esz
					ro := int64(rdispls[r]) * esz
					copy(recvBuf.Bytes()[ro:ro+ln], sendBuf.Bytes()[so:so+ln])
					continue
				}
				if sendCounts[r] > 0 {
					if err := cc.Send(sendBuf.Slice(int64(sdispls[r])*esz, int64(sendCounts[r])*esz), sendCounts[r], d.dt, r, s); err != nil {
						return err
					}
				}
				if recvCounts[r] > 0 {
					if err := cc.Recv(recvBuf.Slice(int64(rdispls[r])*esz, int64(recvCounts[r])*esz), recvCounts[r], d.dt, r, s); err != nil {
						return err
					}
				}
			}
			return cc.GroupEnd()
		},
		func() { x.mpi.Alltoallv(sendBuf, sendCounts, sdispls, dt, recvBuf, recvCounts, rdispls) })
}

// Gather collects every rank's block at root via group send/recv.
func (x *Comm) Gather(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer, root int) {
	bytes := int64(count) * int64(dt.Size())
	bufs := []*device.Buffer{sendBuf}
	if x.Rank() == root {
		bufs = append(bufs, recvBuf)
	}
	d := x.decide(OpGather, bytes, dt, nil, bufs...)
	n := x.Size()
	x.run(OpGather, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			if d.plan != "" {
				return cc.Gather(sendBuf, recvBuf, count, d.dt, root, d.plan, s)
			}
			if err := cc.GroupStart(); err != nil {
				return err
			}
			if x.Rank() == root {
				for r := 0; r < n; r++ {
					if r == root {
						copy(recvBuf.Bytes()[int64(r)*bytes:(int64(r)+1)*bytes], sendBuf.Bytes()[:bytes])
						continue
					}
					if err := cc.Recv(recvBuf.Slice(int64(r)*bytes, bytes), count, d.dt, r, s); err != nil {
						return err
					}
				}
			} else if err := cc.Send(sendBuf, count, d.dt, root, s); err != nil {
				return err
			}
			return cc.GroupEnd()
		},
		func() { x.mpi.Gather(sendBuf, count, dt, recvBuf, root) })
}

// Scatter distributes root's blocks via group send/recv.
func (x *Comm) Scatter(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer, root int) {
	bytes := int64(count) * int64(dt.Size())
	bufs := []*device.Buffer{recvBuf}
	if x.Rank() == root {
		bufs = append(bufs, sendBuf)
	}
	d := x.decide(OpScatter, bytes, dt, nil, bufs...)
	n := x.Size()
	x.run(OpScatter, bytes, d,
		func(cc *ccl.Comm, s *device.Stream) error {
			if d.plan != "" {
				return cc.Scatter(sendBuf, recvBuf, count, d.dt, root, d.plan, s)
			}
			if err := cc.GroupStart(); err != nil {
				return err
			}
			if x.Rank() == root {
				for r := 0; r < n; r++ {
					if r == root {
						copy(recvBuf.Bytes()[:bytes], sendBuf.Bytes()[int64(r)*bytes:(int64(r)+1)*bytes])
						continue
					}
					if err := cc.Send(sendBuf.Slice(int64(r)*bytes, bytes), count, d.dt, r, s); err != nil {
						return err
					}
				}
			} else if err := cc.Recv(recvBuf, count, d.dt, root, s); err != nil {
				return err
			}
			return cc.GroupEnd()
		},
		func() { x.mpi.Scatter(sendBuf, count, dt, recvBuf, root) })
}

// Nonblocking collectives (§1.2 advantage 4): CCLs only provide five
// blocking built-ins, so the layer offers the MPI non-blocking set by
// running the blocking operation on a progress process.

// Request is a handle on a nonblocking xCCL collective.
type Request struct {
	done func(x *Comm)
}

// Wait blocks until the operation completes.
func (x *Comm) Wait(r *Request) { r.done(x) }

func (x *Comm) async(name string, fn func(x *Comm)) *Request {
	// Reserve the collective's sequence slot now (at issue time, per MPI
	// nonblocking-collective matching rules), then run the blocking
	// operation on a progress process bound to that slot.
	epoch := x.mpi.ReserveEpoch()
	child := x.mpi.Proc().Kernel().Spawn(
		fmt.Sprintf("xccl/%s/r%d", name, x.Rank()),
		func(p *sim.Proc) { fn(&Comm{rt: x.rt, mpi: x.mpi.BindAsync(p, epoch)}) })
	return &Request{done: func(x *Comm) { x.mpi.Proc().Join(child) }}
}

// Iallreduce starts a nonblocking Allreduce.
func (x *Comm) Iallreduce(sendBuf, recvBuf *device.Buffer, count int, dt mpi.Datatype, op mpi.Op) *Request {
	return x.async("iallreduce", func(x *Comm) { x.Allreduce(sendBuf, recvBuf, count, dt, op) })
}

// Ibcast starts a nonblocking Bcast.
func (x *Comm) Ibcast(buf *device.Buffer, count int, dt mpi.Datatype, root int) *Request {
	return x.async("ibcast", func(x *Comm) { x.Bcast(buf, count, dt, root) })
}

// Ialltoall starts a nonblocking Alltoall.
func (x *Comm) Ialltoall(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer) *Request {
	return x.async("ialltoall", func(x *Comm) { x.Alltoall(sendBuf, count, dt, recvBuf) })
}

// Iallgather starts a nonblocking Allgather.
func (x *Comm) Iallgather(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer) *Request {
	return x.async("iallgather", func(x *Comm) { x.Allgather(sendBuf, count, dt, recvBuf) })
}
