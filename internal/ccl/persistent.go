package ccl

// Persistent collectives: the MPI-4 MPI_Allreduce_init analogue at the CCL
// layer. AllReduceInit performs everything a one-shot AllReduce pays per
// call — argument validation, plan (schedule family) selection, op-state
// and scratch-pipe setup, helper-process creation — exactly once, and
// returns a handle whose Start/Wait execute the pre-built schedule with
// zero steady-state heap allocations:
//
//   - the stream work item and its completion event are reused
//     (device.PersistentTask + sim.Event.Reset);
//   - sub-buffer views and segment-bound tables are memoized per handle, so
//     the offsets a wave touches are materialized once during the first
//     (warm-up) wave;
//   - asynchronous ring puts run on a resident sender daemon recycling one
//     completion latch (persistSender), replacing the per-step process
//     spawn of the one-shot path;
//   - the hierarchical leader's inter-node engine is a resident daemon fed
//     through a reusable chunk queue, with per-chunk done events Reset each
//     wave.
//
// Partitioned readiness (MPI_Pready analogue): a handle built with
// AllReduceInitPartitioned gates the schedule on per-partition readiness
// tokens, so an application can overlap filling the payload (backprop
// producing gradient partitions) with the collective. The hierarchical
// schedule maps partitions onto its pipeline chunks: the intra-node
// reduction of partition k starts as soon as Pready(k) lands, and the
// inter-node leader ring consumes partitions as they arrive. Flat schedules
// (tree, ring) run whole-payload and simply wait for all partitions.

import (
	"fmt"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// sliceKey identifies one memoized sub-buffer view.
type sliceKey struct {
	buf    *device.Buffer
	off, n int64
}

// persistState carries one rank-handle's schedule caches and hooks, shared
// by every process executing part of that handle (stream task, resident
// sender, inter-node engine). The simulation is cooperatively scheduled, so
// the maps need no locking.
type persistState struct {
	slices map[sliceKey]*device.Buffer
	bounds map[[2]int][]int
	gate   *partGate      // nil unless the handle is partitioned
	eng    *persistEngine // nil unless this rank is a hierarchical leader
	// reps memoizes hierBroadcast's root-substituted representative group
	// (allocated on the first wave when the root is not its node's leader).
	reps []int
	// fwd is the hierarchical allgather leader's resident block-set
	// forwarder (nil elsewhere).
	fwd *persistForwarder
}

// slice returns a view of b[off, off+n), memoized on the persistent
// schedule: a wave touches the same offsets every time, so the views built
// during the warm-up wave make the steady state allocation-free. One-shot
// contexts (nil pers) build views directly.
func (rc *runCtx) slice(b *device.Buffer, off, n int64) *device.Buffer {
	ps := rc.pers
	if ps == nil {
		return b.Slice(off, n)
	}
	k := sliceKey{buf: b, off: off, n: n}
	if s, ok := ps.slices[k]; ok {
		return s
	}
	s := b.Slice(off, n)
	ps.slices[k] = s
	return s
}

// segs is segBounds with the same persistent-schedule memoization.
func (rc *runCtx) segs(count, n int) []int {
	ps := rc.pers
	if ps == nil {
		return segBounds(count, n)
	}
	k := [2]int{count, n}
	if b, ok := ps.bounds[k]; ok {
		return b
	}
	b := segBounds(count, n)
	ps.bounds[k] = b
	return b
}

// gate returns the partition gate of a partitioned persistent schedule, or
// nil on one-shot and non-partitioned paths.
func (rc *runCtx) gate() *partGate {
	if rc.pers == nil {
		return nil
	}
	return rc.pers.gate
}

// partGate tracks which payload partitions the application has marked ready
// in the current wave. Readiness tokens buffer in the channel, so Pready
// may run before the schedule starts consuming, and in any order.
type partGate struct {
	n    int
	ch   *sim.Chan[int]
	sent []bool // producer side: partitions marked ready this wave
	seen []bool // consumer side: partitions the schedule has observed
	left int    // partitions not yet observed this wave
}

func newPartGate(k *sim.Kernel, n int) *partGate {
	return &partGate{n: n, ch: sim.NewChan[int](k, n),
		sent: make([]bool, n), seen: make([]bool, n), left: n}
}

func (g *partGate) reset() {
	for i := range g.sent {
		g.sent[i] = false
		g.seen[i] = false
	}
	g.left = g.n
}

// waitPart blocks until partition ck has been marked ready, recording any
// other partitions whose tokens arrive first.
func (rc *runCtx) waitPart(ck int) {
	g := rc.gate()
	if g == nil || ck >= g.n {
		return
	}
	for !g.seen[ck] {
		i := g.ch.Recv(rc.p)
		if !g.seen[i] {
			g.seen[i] = true
			g.left--
		}
	}
}

// waitAllParts drains the gate until every partition has been marked ready:
// the whole-payload gate of the flat schedules, and the end-of-phase drain
// that keeps the channel empty across waves.
func (rc *runCtx) waitAllParts() {
	g := rc.gate()
	if g == nil {
		return
	}
	for g.left > 0 {
		i := g.ch.Recv(rc.p)
		if !g.seen[i] {
			g.seen[i] = true
			g.left--
		}
	}
}

// stageChunk waits for chunk ck's partition and stages it from the send
// buffer into the accumulation buffer. Only the partition-gated hierarchical
// schedule stages per chunk; everywhere else the gate is nil and the payload
// was staged whole before the first chunk.
func (rc *runCtx) stageChunk(a *opArgs, off, bytes int64, ck int) {
	if rc.gate() == nil {
		return
	}
	rc.waitPart(ck)
	rc.localCopy(rc.slice(a.recv, off, bytes), rc.slice(a.send, off, bytes), bytes)
}

// putJob is one asynchronous put order for a resident sender.
type putJob struct {
	to           int
	src          *device.Buffer
	n, slotBytes int64
}

// persistSender is a resident helper process performing the asynchronous
// puts of one executing process of a persistent schedule: putAsync posts a
// job and returns the recycled completion latch instead of spawning a fresh
// helper (and latch) per ring step. At most one job is outstanding at a
// time — every ring schedule waits a step's send before issuing the next.
type persistSender struct {
	jobs *sim.Chan[putJob]
	done *sim.Counter
}

func newPersistSender(co *core, st *opState, rank int, ps *persistState, name string) *persistSender {
	k := co.fab.Kernel()
	sn := &persistSender{jobs: sim.NewChan[putJob](k, 1), done: sim.NewCounter(k, 0)}
	rc := &runCtx{co: co, st: st, rank: rank, pers: ps}
	k.SpawnDaemon(name, func(p *sim.Proc) {
		rc.p = p
		for {
			j := sn.jobs.Recv(p)
			rc.put(j.to, j.src, j.n, j.slotBytes)
			sn.done.Done()
		}
	})
	return sn
}

func (sn *persistSender) post(to int, src *device.Buffer, n, slotBytes int64) *sim.Counter {
	sn.done.Reset(1)
	sn.jobs.TrySend(putJob{to: to, src: src, n: n, slotBytes: slotBytes})
	return sn.done
}

// persistEngine is a hierarchical leader's resident inter-node engine: the
// chunk queue and per-chunk completion events hierAllReduce reuses every
// wave instead of rebuilding per call.
type persistEngine struct {
	ready *sim.Chan[int]
	done  []*sim.Event
}

// persistForwarder is a resident helper running one preset send routine
// per posted job — the hierarchical allgather leader's per-step block-set
// forwarding — replacing the per-step process (and latch) spawn of the
// one-shot path. At most one job is outstanding at a time.
type persistForwarder struct {
	jobs *sim.Chan[int]
	done *sim.Counter
}

func newPersistForwarder(co *core, st *opState, rank int, ps *persistState,
	name string, run func(rc *runCtx, job int)) *persistForwarder {
	k := co.fab.Kernel()
	fw := &persistForwarder{jobs: sim.NewChan[int](k, 1), done: sim.NewCounter(k, 0)}
	rc := &runCtx{co: co, st: st, rank: rank, pers: ps}
	k.SpawnDaemon(name, func(p *sim.Proc) {
		rc.p = p
		for {
			j := fw.jobs.Recv(p)
			run(rc, j)
			fw.done.Done()
		}
	})
	return fw
}

func (fw *persistForwarder) post(job int) *sim.Counter {
	fw.done.Reset(1)
	fw.jobs.TrySend(job)
	return fw.done
}

// persistShared is the cross-rank Init rendezvous record: the i-th
// persistent Init of every rank joins the same shared op state. Ranks must
// create persistent ops in the same order, like collectives themselves,
// and the i-th Init must be the same collective kind on every rank.
type persistShared struct {
	st     *opState
	kind   string
	count  int
	dt     Datatype
	op     RedOp
	parts  int
	root   int
	joined int
}

// persistJoin runs the cross-rank Init rendezvous for the caller's next
// persistent op, validating argument agreement across ranks.
func (c *Comm) persistJoin(kind string, count int, dt Datatype, op RedOp, parts, root int) (*persistShared, int, error) {
	co := c.core
	id := c.pseq
	c.pseq++
	ps, ok := co.persist[id]
	if !ok {
		ps = &persistShared{
			st: &opState{
				seq:   -(id + 1), // outside the one-shot sequence space
				args:  make([]*opArgs, co.n),
				start: sim.NewBarrier(co.fab.Kernel(), co.n),
				pipes: make(map[[2]int]*pipe),
			},
			kind: kind, count: count, dt: dt, op: op, parts: parts, root: root,
		}
		co.persist[id] = ps
	} else if ps.kind != kind || ps.count != count || ps.dt != dt || ps.op != op ||
		ps.parts != parts || ps.root != root {
		return nil, 0, &Error{Backend: co.cfg.Name, Result: ErrInvalidArgument, Op: kind + "-init",
			Rank: c.rank, Msg: fmt.Sprintf("persistent op #%d: mismatched arguments across ranks", id)}
	}
	ps.joined++
	if ps.joined == co.n {
		delete(co.persist, id) // rendezvous complete; state lives in the handles
	}
	return ps, id, nil
}

// persistStartWait runs a wave's start rendezvous under the collective
// watchdog; false means the wave was judged dead and the verdict raised.
func (c *Comm) persistStartWait(rc *runCtx, st *opState, op string) bool {
	co := c.core
	if co.watchdog > 0 {
		if st.aborted || !st.start.WaitTimeout(rc.p, co.watchdog) {
			st.aborted = true
			c.raiseAsync(co.deadVerdict(op, rc.p.Now()))
			return false
		}
	} else {
		st.start.Wait(rc.p)
	}
	return true
}

// PersistentColl is one rank's handle on a persistent collective. The
// state machine is Init → (Start → [Pready…] → Wait)* → Free: Start
// launches the pre-built schedule on the stream without blocking, Pready
// marks payload partitions ready (partitioned handles only), Wait blocks
// until the wave completes and surfaces this rank's failure verdict.
// A handle whose wave was judged dead by the collective watchdog is broken
// permanently — every later wave fails with the same verdict — and the
// application must rebuild it on a repaired communicator (see the elastic
// training loop in internal/dl).
type PersistentColl struct {
	c     *Comm
	st    *opState
	task  *device.PersistentTask
	pers  *persistState
	algo  Algorithm
	op    string // collective kind, for fault-hook probes and task names
	parts int
	ev    *sim.Event // completion event of the wave in flight
	freed bool
}

// AllReduceInit builds a persistent allreduce handle over the given
// buffers: plan selection (tree / flat ring / hierarchical, honoring
// SetAlgorithm and the backend's size split), validation, and helper
// process setup happen here, exactly once. Custom MSCCL schedules are not
// eligible for persistence. Every rank must call Init with consistent
// arguments and in the same handle order.
func (c *Comm) AllReduceInit(send, recv *device.Buffer, count int, dt Datatype, op RedOp, s *device.Stream) (*PersistentColl, error) {
	return c.AllReduceInitPartitioned(send, recv, count, dt, op, 1, s)
}

// AllReduceInitPartitioned is AllReduceInit with the send payload split
// into parts contiguous element ranges whose readiness the application
// signals per wave with Pready. parts is clamped to count (at most one
// element per partition); parts = 1 behaves like AllReduceInit.
func (c *Comm) AllReduceInitPartitioned(send, recv *device.Buffer, count int, dt Datatype, op RedOp, parts int, s *device.Stream) (*PersistentColl, error) {
	co := c.core
	if err := c.validateArgs("allreduce", send, recv, count, dt, &op, 0); err != nil {
		return nil, err
	}
	if parts < 1 {
		return nil, &Error{Backend: co.cfg.Name, Result: ErrInvalidArgument, Op: "allreduce-init",
			Rank: c.rank, Msg: "partitions must be >= 1"}
	}
	if parts > count {
		parts = count
	}
	if parts < 1 {
		parts = 1 // count == 0
	}

	// Init rendezvous: the i-th Init of every rank joins one shared state.
	ps, id, err := c.persistJoin("allreduce", count, dt, op, parts, 0)
	if err != nil {
		return nil, err
	}
	st := ps.st
	st.args[c.rank] = &opArgs{send: send, recv: recv, count: count} // owned by the handle, never pooled

	// Plan selection, once: the forced family (SetAlgorithm, fed by the
	// tuning table) or the backend's built-in size-based split.
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	algo, chunk := c.resolveAlgo(count)
	if algo == AlgoAuto {
		if bytes <= co.cfg.TreeThreshold || count < co.n {
			algo = AlgoTree
		} else {
			algo = AlgoFlatRing
		}
	}
	if algo == AlgoHierarchical && parts > 1 {
		// Align the pipeline chunk with the partitions so the leader ring
		// consumes partitions as the application marks them ready.
		chunk = int64((count+parts-1)/parts) * esz
	}

	k := co.fab.Kernel()
	pstate := &persistState{
		slices: make(map[sliceKey]*device.Buffer),
		bounds: make(map[[2]int][]int),
	}
	if parts > 1 {
		pstate.gate = newPartGate(k, parts)
	}
	rcMain := &runCtx{co: co, st: st, rank: c.rank, pers: pstate}
	if algo == AlgoFlatRing && co.n > 1 {
		rcMain.sender = newPersistSender(co, st, c.rank, pstate,
			fmt.Sprintf("%s/persist%d/sender/r%d", co.cfg.Name, id, c.rank))
	}
	if algo == AlgoHierarchical {
		hp := co.hier()
		if hp.localIdx[c.rank] == 0 && len(hp.leaders) > 1 {
			ce := int(chunk / esz)
			if ce < 1 {
				ce = 1
			}
			nchunks := (count + ce - 1) / ce
			eng := &persistEngine{
				ready: sim.NewChan[int](k, nchunks+1),
				done:  make([]*sim.Event, nchunks),
			}
			for i := range eng.done {
				eng.done[i] = sim.NewEvent(k)
			}
			pstate.eng = eng
			rcEng := &runCtx{co: co, st: st, rank: c.rank, pers: pstate}
			rcEng.sender = newPersistSender(co, st, c.rank, pstate,
				fmt.Sprintf("%s/persist%d/hier/sender/r%d", co.cfg.Name, id, c.rank))
			hpl, dtl, opl := hp, dt, op
			k.SpawnDaemon(fmt.Sprintf("%s/persist%d/hier/engine/r%d", co.cfg.Name, id, c.rank), func(p *sim.Proc) {
				rcEng.p = p
				for {
					ck := eng.ready.Recv(p)
					rcEng.hierInterAllReduce(hpl, dtl, opl, count, ce, ck)
					eng.done[ck].Fire()
				}
			})
		}
	}

	pc := &PersistentColl{c: c, st: st, pers: pstate, algo: algo, op: "allreduce", parts: parts}
	name := fmt.Sprintf("%s/allreduce-persist%d/r%d", co.cfg.Name, id, c.rank)
	chunkArg := chunk
	pc.task = s.NewPersistentTask(name, func(p *sim.Proc) {
		rcMain.p = p
		c.delay(p, "allreduce")
		rcMain.launch(bytes)
		if !c.persistStartWait(rcMain, st, "allreduce") {
			return
		}
		a := st.args[c.rank]
		if co.n == 1 {
			rcMain.waitAllParts()
			rcMain.localCopy(a.recv, a.send, bytes)
			return
		}
		switch algo {
		case AlgoHierarchical:
			rcMain.hierAllReduce(dt, op, count, chunkArg)
		case AlgoTree:
			rcMain.waitAllParts()
			rcMain.treeAllReduce(dt, op, count)
		default:
			rcMain.waitAllParts()
			rcMain.ringAllReduce(dt, op, count)
		}
		rcMain.settle()
		if st.abortErr != nil {
			// A wave transfer crossed a network cut: the shared verdict
			// voids every rank's result for this wave (and the handle —
			// the persistent op state is permanent, so the owner rebuilds
			// after the membership layer shrinks or regrows).
			c.raiseAsync(st.abortErr)
		}
	})
	return pc, nil
}

// BcastInit builds a persistent broadcast handle (the MPI_Bcast_init
// analogue): validation, schedule selection (binomial tree, or the chunked
// hierarchical fan-out when forced on a multi-node shape), and scratch-pipe
// setup run once; steady-state waves replay the schedule allocation-free.
// Every rank must call Init with consistent arguments and in the same
// handle order. Broadcast handles are not partitionable (only the root
// produces payload).
func (c *Comm) BcastInit(send, recv *device.Buffer, count int, dt Datatype, root int, s *device.Stream) (*PersistentColl, error) {
	co := c.core
	if err := c.validateArgs("broadcast", send, recv, count, dt, nil, root); err != nil {
		return nil, err
	}
	ps, id, err := c.persistJoin("broadcast", count, dt, Sum, 1, root)
	if err != nil {
		return nil, err
	}
	st := ps.st
	st.args[c.rank] = &opArgs{send: send, recv: recv, count: count, root: root}

	bytes := int64(count) * int64(dt.Size())
	algo, chunk := c.resolveAlgo(count)
	if algo != AlgoHierarchical {
		algo = AlgoTree // broadcast's flat schedule is always the binomial tree
	}
	pstate := &persistState{
		slices: make(map[sliceKey]*device.Buffer),
		bounds: make(map[[2]int][]int),
	}
	rcMain := &runCtx{co: co, st: st, rank: c.rank, pers: pstate}
	pc := &PersistentColl{c: c, st: st, pers: pstate, algo: algo, op: "broadcast", parts: 1}
	pc.task = s.NewPersistentTask(fmt.Sprintf("%s/broadcast-persist%d/r%d", co.cfg.Name, id, c.rank),
		func(p *sim.Proc) {
			rcMain.p = p
			c.delay(p, "broadcast")
			rcMain.launch(bytes)
			if !c.persistStartWait(rcMain, st, "broadcast") {
				return
			}
			if algo == AlgoHierarchical && co.n > 1 {
				rcMain.hierBroadcast(dt, count, root, chunk)
			} else {
				rcMain.treeBroadcast(dt, count, root)
			}
			rcMain.settle()
			if st.abortErr != nil {
				c.raiseAsync(st.abortErr)
			}
		})
	return pc, nil
}

// AllgatherInit builds a persistent allgather handle (MPI_Allgather_init):
// the block ring, or the hierarchical leader-ring schedule when forced on a
// multi-node shape. The ring's asynchronous block forwarding runs on a
// resident sender daemon, and a hierarchical leader's per-step block-set
// sends run on a resident forwarder, so steady-state waves spawn no
// processes and allocate nothing.
func (c *Comm) AllgatherInit(send, recv *device.Buffer, count int, dt Datatype, s *device.Stream) (*PersistentColl, error) {
	co := c.core
	if err := c.validateArgs("allgather", send, nil, count, dt, nil, 0); err != nil {
		return nil, err
	}
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	if recv.Len() < bytes*int64(co.n) {
		return nil, &Error{Backend: co.cfg.Name, Result: ErrInvalidArgument, Op: "allgather-init",
			Rank: c.rank, Msg: "allgather recv buffer too small"}
	}
	ps, id, err := c.persistJoin("allgather", count, dt, Sum, 1, 0)
	if err != nil {
		return nil, err
	}
	st := ps.st
	st.args[c.rank] = &opArgs{send: send, recv: recv, count: count}

	algo, chunk := c.resolveAlgo(count)
	if algo != AlgoHierarchical {
		algo = AlgoFlatRing // allgather's flat schedule is the block ring
	}
	pstate := &persistState{
		slices: make(map[sliceKey]*device.Buffer),
		bounds: make(map[[2]int][]int),
	}
	rcMain := &runCtx{co: co, st: st, rank: c.rank, pers: pstate}
	if algo == AlgoFlatRing && co.n > 1 {
		rcMain.sender = newPersistSender(co, st, c.rank, pstate,
			fmt.Sprintf("%s/persist%d/sender/r%d", co.cfg.Name, id, c.rank))
	}
	if algo == AlgoHierarchical {
		hp := co.hier()
		if hp.localIdx[c.rank] == 0 && len(hp.leaders) > 1 {
			// Resident phase-B forwarder: per step, ship one node's
			// block-set to the right-hand leader (hierAllGather posts the
			// source node index as the job).
			blk := bytes
			pstate.fwd = newPersistForwarder(co, st, c.rank, pstate,
				fmt.Sprintf("%s/persist%d/hier/fwd/r%d", co.cfg.Name, id, c.rank),
				func(rc *runCtx, srcNode int) {
					right := hp.leaders[(hp.nodeIdx[rc.rank]+1)%len(hp.leaders)]
					for _, r := range hp.locals[srcNode] {
						rc.putDirect(right, rc.slice(rc.st.args[right].recv, int64(r)*blk, blk),
							rc.slice(rc.st.args[rc.rank].recv, int64(r)*blk, blk), blk)
					}
				})
		}
	}
	pc := &PersistentColl{c: c, st: st, pers: pstate, algo: algo, op: "allgather", parts: 1}
	pc.task = s.NewPersistentTask(fmt.Sprintf("%s/allgather-persist%d/r%d", co.cfg.Name, id, c.rank),
		func(p *sim.Proc) {
			rcMain.p = p
			c.delay(p, "allgather")
			rcMain.launch(bytes)
			if !c.persistStartWait(rcMain, st, "allgather") {
				return
			}
			if algo == AlgoHierarchical && co.n > 1 {
				rcMain.hierAllGather(dt, count, chunk)
			} else {
				rcMain.ringAllGather(dt, count)
			}
			rcMain.settle()
			if st.abortErr != nil {
				c.raiseAsync(st.abortErr)
			}
		})
	return pc, nil
}

// Start launches one execution of the pre-built schedule on the stream
// without blocking. The previous execution must have been Waited. Fault
// hooks are probed per Start, exactly as per one-shot call: a fail-stopped
// rank's Start fails fast with ErrRankDead and never joins the wave its
// surviving peers will time out on.
func (pc *PersistentColl) Start() error {
	if err := pc.c.inject(pc.op); err != nil {
		return err
	}
	if g := pc.pers.gate; g != nil {
		g.reset()
	}
	pc.ev = pc.task.Launch()
	return nil
}

// Pready marks partition k of the send buffer ready for the wave in flight
// (MPI_Pready). Valid only between Start and Wait, once per partition per
// wave; non-partitioned handles ignore it (the whole payload is implicitly
// ready at Start).
func (pc *PersistentColl) Pready(k int) {
	g := pc.pers.gate
	if g == nil {
		return
	}
	if k < 0 || k >= g.n {
		panic(fmt.Sprintf("ccl: Pready(%d) on a %d-partition persistent op", k, g.n))
	}
	if g.sent[k] {
		panic(fmt.Sprintf("ccl: Pready(%d) called twice in one wave", k))
	}
	g.sent[k] = true
	if !g.ch.TrySend(k) {
		panic("ccl: partition gate overflow")
	}
}

// PreadyAll marks every partition of the wave in flight ready.
func (pc *PersistentColl) PreadyAll() {
	if pc.pers.gate == nil {
		return
	}
	for k := 0; k < pc.parts; k++ {
		pc.Pready(k)
	}
}

// Wait blocks p until the launched execution completes and returns this
// rank's failure verdict for it (nil on success). A watchdog abort lets the
// stream task complete, so the verdict is only visible here — the same
// contract as Stream.Synchronize + TakeAsyncErr on the one-shot path.
func (pc *PersistentColl) Wait(p *sim.Proc) error {
	if pc.ev != nil {
		pc.ev.Wait(p)
	}
	return pc.c.TakeAsyncErr()
}

// Do runs one complete execution: Start, every partition ready, Wait. With
// pre-filled buffers it is bytewise equivalent to a one-shot AllReduce.
func (pc *PersistentColl) Do(p *sim.Proc) error {
	if err := pc.Start(); err != nil {
		return err
	}
	pc.PreadyAll()
	return pc.Wait(p)
}

// Parts reports the partition count (1 for a plain persistent op).
func (pc *PersistentColl) Parts() int { return pc.parts }

// PlannedAlgorithm reports the schedule family Init selected.
func (pc *PersistentColl) PlannedAlgorithm() Algorithm { return pc.algo }

// Free releases the handle's scratch pipes once every rank handle has
// called it, after the final Wait. The resident helper processes are
// daemons: they stay parked on their empty queues and do not keep the
// simulation alive. A freed handle must not be Started again.
func (pc *PersistentColl) Free() {
	if pc.freed {
		return
	}
	pc.freed = true
	pc.st.done++
	if pc.st.done == pc.c.core.n {
		for _, pp := range pc.st.pipes {
			for _, s := range pp.slots {
				s.Free()
			}
		}
		pc.st.pipes = nil
	}
}
