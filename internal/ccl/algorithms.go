package ccl

import (
	"fmt"

	"mpixccl/internal/device"
	"mpixccl/internal/elem"
	"mpixccl/internal/sim"
)

func (d Datatype) kind() elem.Kind {
	switch d {
	case Int8:
		return elem.U8
	case Int32:
		return elem.I32
	case Int64:
		return elem.I64
	case Float16:
		return elem.F16
	case Float32:
		return elem.F32
	case Float64:
		return elem.F64
	}
	panic(fmt.Sprintf("ccl: kind for %v", d))
}

func (o RedOp) elemOp() elem.Op {
	switch o {
	case Sum:
		return elem.OpSum
	case Prod:
		return elem.OpProd
	case Max:
		return elem.OpMax
	case Min:
		return elem.OpMin
	}
	panic(fmt.Sprintf("ccl: elem op for %v", o))
}

// enqueueColl registers the rank's args under the next sequence number and
// enqueues the rank's part of the algorithm on the stream.
func (c *Comm) enqueueColl(s *device.Stream, name string, a *opArgs, bytes int64,
	run func(rc *runCtx, a *opArgs)) *sim.Event {
	seq := c.seq
	c.seq++
	st := c.core.join(seq, c.rank, a)
	rank := c.rank
	co := c.core
	return s.Enqueue(fmt.Sprintf("%s/%s/r%d", co.cfg.Name, name, rank), func(p *sim.Proc) {
		rc := co.getCtx(st, rank, p)
		c.wave(rc, name, bytes, run)
		// finish runs on an abandoned wave too, so the op state drains
		// for the ranks that did show up.
		co.finish(st)
		co.putCtx(rc)
	})
}

// wave runs one rank's part of a collective on its stream process, for
// one-shot calls and persistent waves alike: injected straggler delay,
// launch overhead, the start rendezvous, the schedule body, then settle.
// With the watchdog armed, a rendezvous that times out on a fail-stopped
// peer (or that a peer already judged dead) abandons the wave with an
// async ErrRankDead verdict. A transfer that crossed an active network
// cut mid-schedule voids the wave on every participant, even ranks whose
// own hops stayed on one side of the cut.
func (c *Comm) wave(rc *runCtx, op string, bytes int64, body func(rc *runCtx, a *opArgs)) {
	co, st := c.core, rc.st
	c.delay(rc.p, op)
	rc.launch(bytes)
	if co.watchdog > 0 && st.aborted || !rc.startWait() {
		st.aborted = true
		c.raiseAsync(co.deadVerdict(op, rc.p.Now()))
		return
	}
	body(rc, st.args[rc.rank])
	rc.settle()
	if st.abortErr != nil {
		c.raiseAsync(st.abortErr)
	}
}

// startWait waits at the op's cyclic start barrier, bounded by the
// collective watchdog when armed; false means the wait timed out on a hung
// peer and the op is marked aborted.
func (rc *runCtx) startWait() bool {
	co, st := rc.co, rc.st
	if co.watchdog <= 0 {
		st.start.Wait(rc.p)
		return true
	}
	if !st.start.WaitTimeout(rc.p, co.watchdog) {
		st.aborted = true
		return false
	}
	return true
}

// resolveAlgo maps the forced schedule family (SetAlgorithm) onto what
// this call can actually run, degenerating gracefully: hierarchical on a
// shape without a node hierarchy (or an empty payload) falls back to the
// built-in auto split, and a forced flat ring with fewer elements than
// ranks runs the tree instead (the ring needs one segment per rank).
func (c *Comm) resolveAlgo(count int) (Algorithm, int64) {
	algo := c.algo
	if algo == AlgoAuto {
		return AlgoAuto, 0
	}
	switch algo {
	case AlgoHierarchical:
		if count == 0 || !c.core.hier().ok {
			return AlgoAuto, 0
		}
	case AlgoFlatRing:
		if count < c.core.n {
			return AlgoTree, 0
		}
	}
	return algo, c.hierChunk()
}

// allReduceAlgo resolves allreduce's schedule family: the forced family
// (resolveAlgo) or, when none applies, the built-in size split — the
// latency-oriented tree for payloads up to TreeThreshold or with fewer
// elements than ranks, the bandwidth-oriented ring above. auto reports
// that the split decided.
func (c *Comm) allReduceAlgo(count int, bytes int64) (algo Algorithm, chunk int64, auto bool) {
	algo, chunk = c.resolveAlgo(count)
	if algo != AlgoAuto {
		return algo, chunk, false
	}
	if bytes <= c.core.cfg.TreeThreshold || count < c.core.n {
		return AlgoTree, chunk, true
	}
	return AlgoFlatRing, chunk, true
}

// runAllReduce is allreduce's schedule switch, shared by one-shot calls and
// persistent waves; algo is resolved (never AlgoAuto). A partitioned
// persistent wave's flat schedules wait for the whole payload; the
// hierarchical one consumes partitions per chunk.
func (rc *runCtx) runAllReduce(algo Algorithm, dt Datatype, op RedOp, count int, chunk int64) {
	if rc.co.n == 1 {
		a := rc.st.args[rc.rank]
		rc.waitAllParts()
		rc.localCopy(a.recv, a.send, int64(count)*int64(dt.Size()))
		return
	}
	switch algo {
	case AlgoHierarchical:
		rc.hierAllReduce(dt, op, count, chunk)
	case AlgoTree:
		rc.waitAllParts()
		rc.treeAllReduce(dt, op, count)
	default:
		rc.waitAllParts()
		rc.ringAllReduce(dt, op, count)
	}
}

// runBroadcast is broadcast's schedule switch: the chunked hierarchical
// fan-out when forced on a multi-rank shape, the binomial tree otherwise.
func (rc *runCtx) runBroadcast(algo Algorithm, dt Datatype, count, root int, chunk int64) {
	if algo == AlgoHierarchical && rc.co.n > 1 {
		rc.hierBroadcast(dt, count, root, chunk)
		return
	}
	rc.treeBroadcast(dt, count, root)
}

// runAllGather is allgather's schedule switch: the hierarchical leader ring
// when forced on a multi-rank shape, the block ring otherwise.
func (rc *runCtx) runAllGather(algo Algorithm, dt Datatype, count int, chunk int64) {
	if algo == AlgoHierarchical && rc.co.n > 1 {
		rc.hierAllGather(dt, count, chunk)
		return
	}
	rc.ringAllGather(dt, count)
}

// AllReduce combines send into recv across all ranks with op. Large
// payloads run the multi-channel ring (reduce-scatter + allgather); small
// payloads run a latency-oriented binomial tree (reduce + broadcast),
// mirroring NCCL's ring/tree split. A forced algorithm (SetAlgorithm, fed
// by the tuning table) overrides the split and any custom MSCCL schedule.
func (c *Comm) AllReduce(send, recv *device.Buffer, count int, dt Datatype, op RedOp, s *device.Stream) error {
	if err := c.validate("allreduce", send, recv, count, dt, &op, 0); err != nil {
		return err
	}
	bytes := int64(count) * int64(dt.Size())
	a := c.core.newArgs(send, recv, count, 0)
	algo, chunk, auto := c.allReduceAlgo(count, bytes)
	var custom *Algo
	if auto {
		custom = c.core.findAlgo("allreduce", bytes)
		if custom != nil && count < custom.NChunks {
			custom = nil // too few elements to partition
		}
	}
	c.enqueueColl(s, "allreduce", a, bytes, func(rc *runCtx, a *opArgs) {
		if custom != nil && rc.co.n > 1 {
			rc.localCopy(a.recv, a.send, bytes)
			rc.runCustom(custom, dt, op, count)
			return
		}
		rc.runAllReduce(algo, dt, op, count, chunk)
	})
	return nil
}

// Broadcast copies root's send buffer into every rank's recv buffer.
func (c *Comm) Broadcast(send, recv *device.Buffer, count int, dt Datatype, root int, s *device.Stream) error {
	if err := c.validate("broadcast", send, recv, count, dt, nil, root); err != nil {
		return err
	}
	bytes := int64(count) * int64(dt.Size())
	a := c.core.newArgs(send, recv, count, root)
	algo, chunk := c.resolveAlgo(count)
	c.enqueueColl(s, "broadcast", a, bytes, func(rc *runCtx, a *opArgs) {
		rc.runBroadcast(algo, dt, count, root, chunk)
	})
	return nil
}

// Reduce combines send across ranks with op into root's recv buffer.
func (c *Comm) Reduce(send, recv *device.Buffer, count int, dt Datatype, op RedOp, root int, s *device.Stream) error {
	if err := c.validate("reduce", send, recv, count, dt, &op, root); err != nil {
		return err
	}
	bytes := int64(count) * int64(dt.Size())
	a := c.core.newArgs(send, recv, count, root)
	c.enqueueColl(s, "reduce", a, bytes, func(rc *runCtx, a *opArgs) {
		rc.treeReduce(dt, op, count, root)
	})
	return nil
}

// AllGather concatenates each rank's count-element send buffer into every
// rank's recv buffer (size count×n), in rank order.
func (c *Comm) AllGather(send, recv *device.Buffer, count int, dt Datatype, s *device.Stream) error {
	if err := c.validate("allgather", send, nil, count, dt, nil, 0); err != nil {
		return err
	}
	bytes := int64(count) * int64(dt.Size())
	if err := c.checkBlocks("allgather", "allgather recv", recv, bytes); err != nil {
		return err
	}
	a := c.core.newArgs(send, recv, count, 0)
	algo, chunk := c.resolveAlgo(count)
	c.enqueueColl(s, "allgather", a, bytes, func(rc *runCtx, a *opArgs) {
		rc.runAllGather(algo, dt, count, chunk)
	})
	return nil
}

// ReduceScatter reduces count×n elements with op and leaves rank r's
// count-element block in its recv buffer.
func (c *Comm) ReduceScatter(send, recv *device.Buffer, recvCount int, dt Datatype, op RedOp, s *device.Stream) error {
	if err := c.validate("reducescatter", nil, recv, recvCount, dt, &op, 0); err != nil {
		return err
	}
	bytes := int64(recvCount) * int64(dt.Size())
	if err := c.checkBlocks("reducescatter", "reducescatter send", send, bytes); err != nil {
		return err
	}
	a := c.core.newArgs(send, recv, recvCount, 0)
	algo, chunk := c.resolveAlgo(recvCount)
	c.enqueueColl(s, "reducescatter", a, bytes, func(rc *runCtx, a *opArgs) {
		if algo == AlgoHierarchical && rc.co.n > 1 {
			rc.hierReduceScatter(dt, op, recvCount, chunk)
			return
		}
		rc.ringReduceScatter(dt, op, recvCount)
	})
	return nil
}

func (rc *runCtx) localCopy(dst, src *device.Buffer, n int64) {
	if dst != src {
		copy(dst.Bytes()[:n], src.Bytes()[:n])
		rc.p.Sleep(rc.dev().CopyTime(n))
	}
}

// segBounds splits count elements into n segments (element start offsets).
func segBounds(count, n int) []int {
	b := make([]int, n+1)
	base, rem := count/n, count%n
	off := 0
	for i := 0; i < n; i++ {
		b[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	b[n] = count
	return b
}

// ringAllReduce: ring reduce-scatter then ring allgather over the rank's
// recv buffer, with credit-managed pipes for the incoming segments. send is
// never copied whole into recv: step 0 ships straight from send and every
// reduce-scatter step writes recv[seg] = send[seg] ⊕ incoming in one pass.
func (rc *runCtx) ringAllReduce(dt Datatype, op RedOp, count int) {
	a := rc.st.args[rc.rank]
	n := rc.co.n
	esz := int64(dt.Size())
	if a.recv != a.send {
		// The staging copy the fused steps replace still costs its device
		// time, so virtual time is that of copy-then-reduce.
		rc.p.Sleep(rc.dev().CopyTime(int64(count) * esz))
	}
	bounds := rc.segs(count, n)
	maxSeg := int64(bounds[1]-bounds[0]) * esz
	if maxSeg == 0 {
		maxSeg = esz
	}
	right := (rc.rank + 1) % n
	left := (rc.rank - 1 + n) % n
	// Reduce-scatter: after n-1 steps rank r owns segment r fully reduced.
	// Each segment is received once, and the one sent at step s > 0 is the
	// one reduced at step s-1.
	src := a.send
	for step := 0; step < n-1; step++ {
		sendSeg := (rc.rank - step - 1 + 2*n) % n
		recvSeg := (rc.rank - step - 2 + 2*n) % n
		so, sl := int64(bounds[sendSeg])*esz, int64(bounds[sendSeg+1]-bounds[sendSeg])*esz
		ro, rl := int64(bounds[recvSeg])*esz, int64(bounds[recvSeg+1]-bounds[recvSeg])*esz
		sent := rc.putAsync(right, rc.slice(src, so, sl), sl, maxSeg)
		slot, buf := rc.get(left, maxSeg)
		if rl > 0 {
			rc.reduceTo(op, dt, rc.slice(a.recv, ro, rl), rc.slice(a.send, ro, rl), buf, int(rl/esz))
		}
		rc.release(left, slot, maxSeg)
		sent.Wait(rc.p)
		src = a.recv
	}
	// Allgather: forward segments through the same credit-managed pipes
	// (the receiver copies each one into place), so a fast sender can
	// never overwrite state a slow neighbor has not consumed yet.
	for step := 0; step < n-1; step++ {
		sendSeg := (rc.rank - step + n) % n
		recvSeg := (rc.rank - step - 1 + 2*n) % n
		so, sl := int64(bounds[sendSeg])*esz, int64(bounds[sendSeg+1]-bounds[sendSeg])*esz
		ro, rl := int64(bounds[recvSeg])*esz, int64(bounds[recvSeg+1]-bounds[recvSeg])*esz
		sent := rc.putAsync(right, rc.slice(a.recv, so, sl), sl, maxSeg)
		slot, buf := rc.get(left, maxSeg)
		if rl > 0 {
			copy(a.recv.Bytes()[ro:ro+rl], buf.Bytes()[:rl])
			rc.p.Sleep(rc.dev().CopyTime(rl))
		}
		rc.release(left, slot, maxSeg)
		sent.Wait(rc.p)
	}
}

// treeAllReduce: binomial reduce to rank 0 followed by binomial broadcast —
// the latency-oriented path for small payloads.
func (rc *runCtx) treeAllReduce(dt Datatype, op RedOp, count int) {
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	rc.localCopy(a.recv, a.send, int64(count)*esz)
	rc.treeReduceInPlace(dt, op, count, 0)
	rc.treeBroadcastBuf(dt, count, 0)
}

// treeReduceInPlace runs a binomial reduction over each rank's recv buffer
// toward root.
func (rc *runCtx) treeReduceInPlace(dt Datatype, op RedOp, count int, root int) {
	n := rc.co.n
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	if bytes == 0 {
		bytes = esz
	}
	rel := (rc.rank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := ((rel - mask) + root) % n
			rc.put(parent, rc.st.args[rc.rank].recv, int64(count)*esz, bytes)
			return
		}
		childRel := rel + mask
		if childRel < n {
			child := (childRel + root) % n
			slot, buf := rc.get(child, bytes)
			if count > 0 {
				mine := rc.slice(rc.st.args[rc.rank].recv, 0, int64(count)*esz)
				rc.reduceTo(op, dt, mine, mine, buf, count)
			}
			rc.release(child, slot, bytes)
		}
	}
}

// treeBroadcast copies root's send buffer down a binomial tree into each
// rank's recv buffer.
func (rc *runCtx) treeBroadcast(dt Datatype, count int, root int) {
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	if rc.rank == root {
		rc.localCopy(a.recv, a.send, int64(count)*esz)
	}
	rc.treeBroadcastBuf(dt, count, root)
}

// treeBroadcastBuf runs the binomial broadcast over each rank's recv buffer,
// assuming root's already holds the payload.
func (rc *runCtx) treeBroadcastBuf(dt Datatype, count int, root int) {
	n := rc.co.n
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	rel := (rc.rank - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := ((rel - mask) + root + n) % n
			rc.waitDirect(parent)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			child := (rel + mask + root) % n
			rc.putDirect(child, rc.slice(rc.st.args[child].recv, 0, bytes), rc.slice(rc.st.args[rc.rank].recv, 0, bytes), bytes)
		}
		mask >>= 1
	}
}

// treeReduce is the standalone Reduce: binomial reduction into scratch so
// non-root send buffers are preserved, landing in root's recv.
func (rc *runCtx) treeReduce(dt Datatype, op RedOp, count int, root int) {
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	acc := rc.dev().MustMallocScratch(bytes) // fully written by the copy below
	defer rc.freeScratch(acc)
	rc.localCopy(acc, a.send, bytes)
	n := rc.co.n
	slotBytes := bytes
	if slotBytes == 0 {
		slotBytes = esz
	}
	rel := (rc.rank - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			parent := ((rel - mask) + root) % n
			rc.put(parent, acc, bytes, slotBytes)
			return
		}
		childRel := rel + mask
		if childRel < n {
			child := (childRel + root) % n
			slot, buf := rc.get(child, slotBytes)
			if count > 0 {
				rc.reduceTo(op, dt, acc, acc, buf, count)
			}
			rc.release(child, slot, slotBytes)
		}
	}
	if rc.rank == root {
		rc.localCopy(a.recv, acc, bytes)
	}
}

// ringAllGather: rank r's block lands at offset r·count; direct writes
// forward blocks around the ring.
func (rc *runCtx) ringAllGather(dt Datatype, count int) {
	a := rc.st.args[rc.rank]
	n := rc.co.n
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	copy(a.recv.Bytes()[int64(rc.rank)*bytes:(int64(rc.rank)+1)*bytes], a.send.Bytes()[:bytes])
	rc.p.Sleep(rc.dev().CopyTime(bytes))
	if n == 1 {
		return
	}
	right := (rc.rank + 1) % n
	left := (rc.rank - 1 + n) % n
	slotBytes := bytes
	if slotBytes == 0 {
		slotBytes = esz
	}
	for step := 0; step < n-1; step++ {
		sendSeg := (rc.rank - step + n) % n
		recvSeg := (rc.rank - step - 1 + 2*n) % n
		sent := rc.putAsync(right, rc.slice(a.recv, int64(sendSeg)*bytes, bytes), bytes, slotBytes)
		slot, buf := rc.get(left, slotBytes)
		copy(a.recv.Bytes()[int64(recvSeg)*bytes:(int64(recvSeg)+1)*bytes], buf.Bytes()[:bytes])
		rc.p.Sleep(rc.dev().CopyTime(bytes))
		rc.release(left, slot, slotBytes)
		sent.Wait(rc.p)
	}
}

// ringReduceScatter: the reduce-scatter phase alone. Step 0 ships straight
// from send, each step writes work[seg] = send[seg] ⊕ incoming, and the last
// step (which receives the rank's own block) writes recv directly.
func (rc *runCtx) ringReduceScatter(dt Datatype, op RedOp, recvCount int) {
	a := rc.st.args[rc.rank]
	n := rc.co.n
	esz := int64(dt.Size())
	blk := int64(recvCount) * esz
	// Device time of the staging copies the fused steps replace: send into
	// the work buffer, and the owned block out of it (charged at the end).
	rc.p.Sleep(rc.dev().CopyTime(blk * int64(n)))
	if n == 1 {
		copy(a.recv.Bytes()[:blk], a.send.Bytes()[:blk])
		rc.p.Sleep(rc.dev().CopyTime(blk))
		return
	}
	work := rc.dev().MustMallocScratch(blk * int64(n)) // each segment written before it is sent
	defer rc.freeScratch(work)
	right := (rc.rank + 1) % n
	left := (rc.rank - 1 + n) % n
	slotBytes := blk
	if slotBytes == 0 {
		slotBytes = esz
	}
	src := a.send
	for step := 0; step < n-1; step++ {
		sendSeg := (rc.rank - step - 1 + 2*n) % n
		recvSeg := (rc.rank - step - 2 + 2*n) % n
		sent := rc.putAsync(right, src.Slice(int64(sendSeg)*blk, blk), blk, slotBytes)
		slot, buf := rc.get(left, slotBytes)
		dst := a.recv
		if step < n-2 {
			dst = work.Slice(int64(recvSeg)*blk, blk)
		}
		rc.reduceTo(op, dt, dst, a.send.Slice(int64(recvSeg)*blk, blk), buf, recvCount)
		rc.release(left, slot, slotBytes)
		sent.Wait(rc.p)
		src = work
	}
	rc.p.Sleep(rc.dev().CopyTime(blk))
}
