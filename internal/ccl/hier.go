package ccl

import (
	"sort"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// Topology-aware hierarchical collectives: the NCCL-style decomposition
// where the payload is combined within each node over the fast intra-node
// fabric first, only the node leaders exchange over the slow inter-node
// links, and the result fans back out inside each node. Payloads are split
// into fixed-size chunks that flow through the three phases as a software
// pipeline, so the inter-node exchange of chunk k overlaps the intra-node
// work of chunk k+1 (the leader drives the inter-node phase on a helper
// process fed through a chunk queue). All data movement reuses the
// credit-managed scratch pipes of the flat algorithms; intra-node,
// leader-leader, and fan-out hops use disjoint directed pipe keys, so the
// phases never contend for each other's flow-control credits.

// Algorithm selects a collective schedule family. The zero value (AlgoAuto)
// keeps the backend's built-in size-based ring/tree split; the dispatch
// layer forces a specific family per tuned size band (core.TuningTable v2).
type Algorithm int

const (
	// AlgoAuto is the backend default: tree below TreeThreshold, flat ring
	// above, custom MSCCL schedules when registered.
	AlgoAuto Algorithm = iota
	// AlgoFlatRing forces the flat (topology-blind) ring.
	AlgoFlatRing
	// AlgoTree forces the latency-oriented binomial tree.
	AlgoTree
	// AlgoHierarchical forces the two-level node-leader decomposition with
	// chunked pipelining. Degenerates to AlgoAuto when the communicator does
	// not span multiple nodes (or no node holds more than one rank), so a
	// tuned table built on a multi-node shape stays safe on any shape.
	AlgoHierarchical
)

// String names the algorithm as the tuning table spells it.
func (a Algorithm) String() string {
	switch a {
	case AlgoFlatRing:
		return "flat-ring"
	case AlgoTree:
		return "tree"
	case AlgoHierarchical:
		return "hierarchical"
	}
	return "auto"
}

// defaultHierChunkBytes is the pipeline chunk used when neither the caller
// nor the backend Config picks one.
const defaultHierChunkBytes = 1 << 20

// SetAlgorithm forces the schedule family (and hierarchical pipeline chunk;
// 0 = Config.HierChunkBytes) for this rank handle's subsequent collectives.
// AlgoAuto restores the backend default. The dispatch layer calls this with
// the tuned table's per-size-band choice; all ranks must agree per call,
// which holds because the choice is a pure function of (op, payload size).
func (c *Comm) SetAlgorithm(a Algorithm, chunkBytes int64) {
	c.algo = a
	c.algoChunk = chunkBytes
}

// Algorithm reports the forced schedule family and chunk override.
func (c *Comm) Algorithm() (Algorithm, int64) { return c.algo, c.algoChunk }

// hierChunk resolves the pipeline chunk size for this call.
func (c *Comm) hierChunk() int64 {
	if c.algoChunk > 0 {
		return c.algoChunk
	}
	if c.core.cfg.HierChunkBytes > 0 {
		return c.core.cfg.HierChunkBytes
	}
	return defaultHierChunkBytes
}

// hierPlan is the communicator's node hierarchy, read from device placement
// (device.Node): one leader per node plus per-rank positions. Built once
// and cached on the shared core — devices never move after NewComms.
type hierPlan struct {
	// ok reports the shape hierarchy helps: several nodes, and at least one
	// node holding more than one rank.
	ok bool
	// leaders holds one leader rank per node, in node-id order.
	leaders []int
	// locals[i] lists the comm ranks on node i (same node order), ascending.
	locals [][]int
	// nodeIdx[r] is rank r's node index into leaders/locals.
	nodeIdx []int
	// localIdx[r] is rank r's position within locals[nodeIdx[r]].
	localIdx []int
}

// hier returns (building on first use) the cached node plan.
func (co *core) hier() *hierPlan {
	if co.hierCache != nil {
		return co.hierCache
	}
	byNode := map[int][]int{}
	for r := 0; r < co.n; r++ {
		n := co.devs[r].Node
		byNode[n] = append(byNode[n], r)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	hp := &hierPlan{
		nodeIdx:  make([]int, co.n),
		localIdx: make([]int, co.n),
	}
	packed := false
	for i, n := range nodes {
		ranks := byNode[n]
		hp.leaders = append(hp.leaders, ranks[0])
		hp.locals = append(hp.locals, ranks)
		if len(ranks) > 1 {
			packed = true
		}
		for j, r := range ranks {
			hp.nodeIdx[r] = i
			hp.localIdx[r] = j
		}
	}
	hp.ok = len(nodes) > 1 && packed
	co.hierCache = hp
	return hp
}

// chunkRange returns the element range [lo, lo+n) of chunk ck when count
// elements are cut into ce-element chunks.
func chunkRange(count, ce, ck int) (lo, n int) {
	lo = ck * ce
	n = count - lo
	if n > ce {
		n = ce
	}
	return lo, n
}

// hierAllReduce is the three-phase pipelined allreduce: per chunk, a
// binomial intra-node reduction into the node leader (phase A), a ring
// allreduce over the leader group (phase B, on a helper process so it
// overlaps phase A of the next chunk), and a binomial intra-node broadcast
// (phase C) as soon as the ring delivers the chunk.
func (rc *runCtx) hierAllReduce(dt Datatype, op RedOp, count int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	// A partition-gated persistent schedule stages each chunk as its
	// partition becomes ready (stageChunk below); everything else stages the
	// whole payload up front.
	if rc.gate() == nil {
		rc.localCopy(a.recv, a.send, int64(count)*esz)
	}

	locals := hp.locals[hp.nodeIdx[rc.rank]]
	li := hp.localIdx[rc.rank]
	m := len(hp.leaders)
	ce := int(chunkBytes / esz)
	if ce < 1 {
		ce = 1
	}
	nchunks := (count + ce - 1) / ce
	slotBytes := int64(ce) * esz

	if li != 0 {
		// Non-leader: feed chunks up the intra tree, then receive results.
		for ck := 0; ck < nchunks; ck++ {
			lo, cn := chunkRange(count, ce, ck)
			rc.stageChunk(a, int64(lo)*esz, int64(cn)*esz, ck)
			rc.intraTreeReduce(locals, li, dt, op, a.recv, a.recv, int64(lo)*esz, cn, slotBytes)
		}
		rc.waitAllParts()
		for ck := 0; ck < nchunks; ck++ {
			lo, cn := chunkRange(count, ce, ck)
			rc.intraTreeBcast(locals, li, 0, int64(lo)*esz, int64(cn)*esz)
		}
		return
	}

	// Leader: the inter-node engine runs the leader ring per chunk on its
	// own process, fed through a queue, so chunk k's inter-node exchange
	// overlaps chunk k+1's intra-node reduction. A persistent handle brings
	// its own resident engine (persistent.go); the one-shot path spawns one
	// per call.
	var ready *sim.Chan[int]
	var done []*sim.Event
	if m > 1 {
		if rc.pers != nil && rc.pers.eng != nil {
			ready, done = rc.pers.eng.ready, rc.pers.eng.done
			for _, ev := range done {
				ev.Reset()
			}
		} else {
			k := rc.p.Kernel()
			ready = sim.NewChan[int](k, nchunks+1)
			done = make([]*sim.Event, nchunks)
			for i := range done {
				done[i] = sim.NewEvent(k)
			}
			co, st, rank := rc.co, rc.st, rc.rank
			k.Spawn(co.cfg.Name+"/hier/engine", func(p *sim.Proc) {
				sub := co.getCtx(st, rank, p)
				for i := 0; i < nchunks; i++ {
					ck := ready.Recv(p)
					sub.hierInterAllReduce(hp, dt, op, count, ce, ck)
					done[ck].Fire()
				}
				co.putCtx(sub)
			})
		}
	}
	for ck := 0; ck < nchunks; ck++ {
		lo, cn := chunkRange(count, ce, ck)
		rc.stageChunk(a, int64(lo)*esz, int64(cn)*esz, ck)
		rc.intraTreeReduce(locals, li, dt, op, a.recv, a.recv, int64(lo)*esz, cn, slotBytes)
		if m > 1 {
			ready.Send(rc.p, ck)
		}
	}
	rc.waitAllParts()
	for ck := 0; ck < nchunks; ck++ {
		if m > 1 {
			done[ck].Wait(rc.p)
		}
		lo, cn := chunkRange(count, ce, ck)
		rc.intraTreeBcast(locals, li, 0, int64(lo)*esz, int64(cn)*esz)
	}
}

// hierInterAllReduce runs one chunk's ring allreduce (reduce-scatter +
// allgather) over the leader group, in place over the leader's recv buffer.
func (rc *runCtx) hierInterAllReduce(hp *hierPlan, dt Datatype, op RedOp, count, ce, ck int) {
	m := len(hp.leaders)
	idx := hp.nodeIdx[rc.rank]
	right := hp.leaders[(idx+1)%m]
	left := hp.leaders[(idx-1+m)%m]
	lo, cn := chunkRange(count, ce, ck)
	esz := int64(dt.Size())
	base := int64(lo) * esz
	recv := rc.st.args[rc.rank].recv
	bounds := rc.segs(cn, m)
	slotBytes := int64(bounds[1]-bounds[0]) * esz
	if slotBytes == 0 {
		slotBytes = esz
	}
	seg := func(s int) (int64, int64) {
		return base + int64(bounds[s])*esz, int64(bounds[s+1]-bounds[s]) * esz
	}
	// Reduce-scatter: after m-1 steps leader idx owns segment idx reduced.
	for step := 0; step < m-1; step++ {
		so, sl := seg((idx - step - 1 + 2*m) % m)
		ro, rl := seg((idx - step - 2 + 2*m) % m)
		var sent *sim.Counter
		if sl > 0 {
			sent = rc.putAsync(right, rc.slice(recv, so, sl), sl, slotBytes)
		}
		if rl > 0 {
			slot, buf := rc.get(left, slotBytes)
			seg := rc.slice(recv, ro, rl)
			rc.reduceTo(op, dt, seg, seg, buf, int(rl/esz))
			rc.release(left, slot, slotBytes)
		}
		if sent != nil {
			sent.Wait(rc.p)
		}
	}
	// Allgather: forward the reduced segments around the same ring.
	for step := 0; step < m-1; step++ {
		so, sl := seg((idx - step + m) % m)
		ro, rl := seg((idx - step - 1 + 2*m) % m)
		var sent *sim.Counter
		if sl > 0 {
			sent = rc.putAsync(right, rc.slice(recv, so, sl), sl, slotBytes)
		}
		if rl > 0 {
			slot, buf := rc.get(left, slotBytes)
			copy(recv.Bytes()[ro:ro+rl], buf.Bytes()[:rl])
			rc.p.Sleep(rc.dev().CopyTime(rl))
			rc.release(left, slot, slotBytes)
		}
		if sent != nil {
			sent.Wait(rc.p)
		}
	}
}

// intraTreeReduce runs a binomial reduction of the region [off,
// off+count·esz) over the same-node rank group toward group[0]. Every rank
// accumulates into its own buf; src holds the rank's initial contents (buf
// itself when already staged there), so the first child's contribution is
// combined as buf = src ⊕ incoming and a leaf ships src untouched. Payload
// moves through the credit-managed pipes.
func (rc *runCtx) intraTreeReduce(group []int, idx int, dt Datatype, op RedOp,
	buf, src *device.Buffer, off int64, count int, slotBytes int64) {
	n := len(group)
	if n <= 1 || count == 0 {
		return
	}
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	mine := rc.slice(buf, off, bytes)
	cur := rc.slice(src, off, bytes)
	for mask := 1; mask < n; mask <<= 1 {
		if idx&mask != 0 {
			rc.put(group[idx-mask], cur, bytes, slotBytes)
			return
		}
		if idx+mask < n {
			child := group[idx+mask]
			slot, s := rc.get(child, slotBytes)
			rc.reduceTo(op, dt, mine, cur, s, count)
			cur = mine
			rc.release(child, slot, slotBytes)
		}
	}
}

// intraTreeBcast broadcasts each rank's recv[off:off+bytes] region down a
// binomial tree rooted at group[rootIdx], via direct writes into the user
// buffers (the region is written exactly once per chunk).
func (rc *runCtx) intraTreeBcast(group []int, idx, rootIdx int, off, bytes int64) {
	n := len(group)
	if n <= 1 || bytes == 0 {
		return
	}
	rel := (idx - rootIdx + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			rc.waitDirect(group[(rel-mask+rootIdx)%n])
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			child := group[(rel+mask+rootIdx)%n]
			rc.putDirect(child, rc.slice(rc.st.args[child].recv, off, bytes),
				rc.slice(rc.st.args[rc.rank].recv, off, bytes), bytes)
		}
		mask >>= 1
	}
}

// hierBroadcast: per chunk, a binomial broadcast over one representative
// per node (the root stands in for its node's leader), then a binomial
// fan-out within each node. Chunking lets the fan-out of chunk k overlap
// the inter-node hop of chunk k+1 as a wave pipeline.
func (rc *runCtx) hierBroadcast(dt Datatype, count, root int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	if rc.rank == root {
		rc.localCopy(a.recv, a.send, int64(count)*esz)
	}
	if count == 0 {
		return
	}
	rootNode := hp.nodeIdx[root]
	reps := hp.leaders
	if hp.leaders[rootNode] != root {
		// The root stands in for its node's leader. Persistent schedules
		// memoize the substituted group — the root never changes per handle.
		if rc.pers != nil && rc.pers.reps != nil {
			reps = rc.pers.reps
		} else {
			reps = make([]int, len(hp.leaders))
			copy(reps, hp.leaders)
			reps[rootNode] = root
			if rc.pers != nil {
				rc.pers.reps = reps
			}
		}
	}
	locals := hp.locals[hp.nodeIdx[rc.rank]]
	li := hp.localIdx[rc.rank]
	// My node's representative position within locals (root may not be the
	// leader on its own node).
	repIdx := 0
	if hp.nodeIdx[rc.rank] == rootNode {
		repIdx = hp.localIdx[root]
	}
	isRep := rc.rank == reps[hp.nodeIdx[rc.rank]]
	ce := int(chunkBytes / esz)
	if ce < 1 {
		ce = 1
	}
	nchunks := (count + ce - 1) / ce
	for ck := 0; ck < nchunks; ck++ {
		lo, cn := chunkRange(count, ce, ck)
		off, bytes := int64(lo)*esz, int64(cn)*esz
		if isRep {
			rc.interTreeBcast(reps, hp.nodeIdx[rc.rank], rootNode, off, bytes)
		}
		rc.intraTreeBcast(locals, li, repIdx, off, bytes)
	}
}

// interTreeBcast is intraTreeBcast over the per-node representative group
// (kept separate for the name in pipe-key traces; same direct-write tree).
func (rc *runCtx) interTreeBcast(group []int, idx, rootIdx int, off, bytes int64) {
	rc.intraTreeBcast(group, idx, rootIdx, off, bytes)
}

// hierAllGather: local blocks gather at the node leader (direct writes at
// their final offsets), leaders ring-forward whole node block-sets, and
// each leader fans the assembled buffer out to its node in pipeline chunks.
func (rc *runCtx) hierAllGather(dt Datatype, count int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	blk := int64(count) * esz
	copy(a.recv.Bytes()[int64(rc.rank)*blk:(int64(rc.rank)+1)*blk], a.send.Bytes()[:blk])
	rc.p.Sleep(rc.dev().CopyTime(blk))
	if count == 0 {
		return
	}
	ni := hp.nodeIdx[rc.rank]
	locals := hp.locals[ni]
	li := hp.localIdx[rc.rank]
	leader := locals[0]
	m := len(hp.leaders)

	if li != 0 {
		// Phase A: deliver my block straight into the leader's recv at its
		// final offset, then wait for the assembled result (phase C).
		rc.putDirect(leader, rc.slice(rc.st.args[leader].recv, int64(rc.rank)*blk, blk),
			rc.slice(a.recv, int64(rc.rank)*blk, blk), blk)
		rc.hierAllGatherFanIn(locals, li, int64(rc.co.n)*blk, chunkBytes)
		return
	}
	for _, r := range locals[1:] {
		rc.waitDirect(r)
	}
	// Phase B: m-1 ring steps; step s forwards the block-set of node
	// (idx-s) to the right while receiving node (idx-s-1) from the left.
	// Sends run on a helper process so the ring stays full duplex — the
	// resident forwarder of a persistent handle, or a per-step spawn on the
	// one-shot path.
	if m > 1 {
		right := hp.leaders[(ni+1)%m]
		left := hp.leaders[(ni-1+m)%m]
		co, st, rank := rc.co, rc.st, rc.rank
		for step := 0; step < m-1; step++ {
			srcNode := (ni - step + m) % m
			inNode := (ni - step - 1 + 2*m) % m
			var sent *sim.Counter
			if rc.pers != nil && rc.pers.fwd != nil {
				sent = rc.pers.fwd.post(srcNode)
			} else {
				oneShot := sim.NewCounter(rc.p.Kernel(), 1)
				rc.p.Kernel().Spawn(co.putName(rank, right), func(p *sim.Proc) {
					sub := co.getCtx(st, rank, p)
					for _, r := range hp.locals[srcNode] {
						sub.putDirect(right, st.args[right].recv.Slice(int64(r)*blk, blk),
							st.args[rank].recv.Slice(int64(r)*blk, blk), blk)
					}
					co.putCtx(sub)
					oneShot.Done()
				})
				sent = oneShot
			}
			for range hp.locals[inNode] {
				rc.waitDirect(left)
			}
			sent.Wait(rc.p)
		}
	}
	// Phase C: fan the fully assembled buffer out within the node.
	rc.hierAllGatherFanIn(locals, li, int64(rc.co.n)*blk, chunkBytes)
}

// hierAllGatherFanIn runs the chunked intra-node broadcast of the whole
// recv buffer from the leader (re-sending a rank its own block is harmless
// and keeps every chunk a contiguous direct write).
func (rc *runCtx) hierAllGatherFanIn(locals []int, li int, total int64, chunkBytes int64) {
	if len(locals) <= 1 {
		return
	}
	if chunkBytes < 1 {
		chunkBytes = 1
	}
	for off := int64(0); off < total; off += chunkBytes {
		bytes := total - off
		if bytes > chunkBytes {
			bytes = chunkBytes
		}
		rc.intraTreeBcast(locals, li, 0, off, bytes)
	}
}

// hierReduceScatter: chunked intra-node tree reduction of the full payload
// into the node leader, a leader ring reduce-scatter at node block-set
// granularity, then each leader delivers its local ranks' reduced blocks.
// send is never staged whole: the first reduction of each region reads it
// directly (work = send ⊕ incoming), and the leader's last ring step writes
// its own block straight into recv.
func (rc *runCtx) hierReduceScatter(dt Datatype, op RedOp, recvCount int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	n := rc.co.n
	esz := int64(dt.Size())
	blk := int64(recvCount) * esz
	total := blk * int64(n)
	// Device time of the staging copy of send into work the fused
	// reductions replace.
	rc.p.Sleep(rc.dev().CopyTime(total))
	work := rc.dev().MustMallocScratch(total) // each region written before it is read
	defer rc.freeScratch(work)

	ni := hp.nodeIdx[rc.rank]
	locals := hp.locals[ni]
	li := hp.localIdx[rc.rank]
	m := len(hp.leaders)

	// Phase A: chunked binomial reduction of the whole payload to the leader.
	ce := int(chunkBytes / esz)
	if ce < 1 {
		ce = 1
	}
	totalCount := recvCount * n
	nchunks := (totalCount + ce - 1) / ce
	slotBytes := int64(ce) * esz
	for ck := 0; ck < nchunks; ck++ {
		lo, cn := chunkRange(totalCount, ce, ck)
		rc.intraTreeReduce(locals, li, dt, op, work, a.send, int64(lo)*esz, cn, slotBytes)
	}

	if li != 0 {
		rc.waitDirect(locals[0])
		return
	}
	// acc holds the leader's node-reduced payload: work after a phase-A
	// reduction, send itself on a single-rank node.
	acc := work
	if len(locals) == 1 {
		acc = a.send
	}
	// Phase B: ring reduce-scatter over leaders; the segments are node
	// block-sets (one slot-pipelined put per member block, so uneven nodes
	// exchange unequal step volumes without extra synchronization). The
	// last step receives this node's block-set; the leader's own block lands
	// in recv.
	if m > 1 {
		right := hp.leaders[(ni+1)%m]
		left := hp.leaders[(ni-1+m)%m]
		co, st, rank := rc.co, rc.st, rc.rank
		src := acc
		for step := 0; step < m-1; step++ {
			sendNode := (ni - step - 1 + 2*m) % m
			recvNode := (ni - step - 2 + 2*m) % m
			sent := sim.NewCounter(rc.p.Kernel(), 1)
			from := src
			rc.p.Kernel().Spawn(co.putName(rank, right), func(p *sim.Proc) {
				sub := co.getCtx(st, rank, p)
				for _, r := range hp.locals[sendNode] {
					sub.put(right, from.Slice(int64(r)*blk, blk), blk, blk)
				}
				co.putCtx(sub)
				sent.Done()
			})
			for _, r := range hp.locals[recvNode] {
				slot, buf := rc.get(left, blk)
				dst := work.Slice(int64(r)*blk, blk)
				if r == rc.rank {
					dst = a.recv
				}
				rc.reduceTo(op, dt, dst, acc.Slice(int64(r)*blk, blk), buf, recvCount)
				rc.release(left, slot, blk)
			}
			sent.Wait(rc.p)
			src = work
		}
	}
	// Phase C: deliver each local rank's reduced block.
	for _, r := range locals[1:] {
		rc.putDirect(r, rc.st.args[r].recv.Slice(0, blk), work.Slice(int64(r)*blk, blk), blk)
	}
	// The leader's block: its copy into recv (fused into the last ring step
	// when there is one) keeps its device time.
	if m == 1 {
		copy(a.recv.Bytes()[:blk], acc.Bytes()[int64(rc.rank)*blk:int64(rc.rank+1)*blk])
	}
	rc.p.Sleep(rc.dev().CopyTime(blk))
}
