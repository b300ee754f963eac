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
//     completion latch (resident), replacing the per-step process
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
	fwd *resident[int]
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

// resident is a helper process of a persistent schedule that runs one
// preset routine per posted job, replacing the per-step process (and latch)
// spawn of the one-shot path: a ring's asynchronous puts (the resident
// sender, whose jobs are putJobs) and a hierarchical allgather leader's
// per-step block-set forwarding (jobs are source node indexes). post
// returns the recycled completion latch. At most one job is outstanding at
// a time — every schedule waits a step's send before issuing the next.
type resident[J any] struct {
	jobs *sim.Chan[J]
	done *sim.Counter
}

func newResident[J any](co *core, st *opState, rank int, ps *persistState,
	name string, run func(rc *runCtx, job J)) *resident[J] {
	k := co.fab.Kernel()
	h := &resident[J]{jobs: sim.NewChan[J](k, 1), done: sim.NewCounter(k, 0)}
	rc := &runCtx{co: co, st: st, rank: rank, pers: ps}
	k.SpawnDaemon(name, func(p *sim.Proc) {
		rc.p = p
		for {
			j := h.jobs.Recv(p)
			run(rc, j)
			h.done.Done()
		}
	})
	return h
}

func (h *resident[J]) post(job J) *sim.Counter {
	h.done.Reset(1)
	h.jobs.TrySend(job)
	return h.done
}

// newPersistSender starts the resident sender putAsync posts to.
func newPersistSender(co *core, st *opState, rank int, ps *persistState, name string) *resident[putJob] {
	return newResident(co, st, rank, ps, name, func(rc *runCtx, j putJob) {
		rc.put(j.to, j.src, j.n, j.slotBytes)
	})
}

// persistEngine is a hierarchical leader's resident inter-node engine: the
// chunk queue and per-chunk completion events hierAllReduce reuses every
// wave instead of rebuilding per call.
type persistEngine struct {
	ready *sim.Chan[int]
	done  []*sim.Event
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

// persistBegin runs the Init steps every persistent collective shares: the
// cross-rank rendezvous for the caller's next persistent op (validating
// argument agreement across ranks), the handle-owned argument record
// (never pooled), and the main execution context with the handle's
// schedule caches.
func (c *Comm) persistBegin(kind string, a *opArgs, dt Datatype, op RedOp, parts int) (*runCtx, int, error) {
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
			kind: kind, count: a.count, dt: dt, op: op, parts: parts, root: a.root,
		}
		co.persist[id] = ps
	} else if ps.kind != kind || ps.count != a.count || ps.dt != dt || ps.op != op ||
		ps.parts != parts || ps.root != a.root {
		return nil, 0, &Error{Backend: co.cfg.Name, Result: ErrInvalidArgument, Op: kind + "-init",
			Rank: c.rank, Msg: fmt.Sprintf("persistent op #%d: mismatched arguments across ranks", id)}
	}
	ps.joined++
	if ps.joined == co.n {
		delete(co.persist, id) // rendezvous complete; state lives in the handles
	}
	ps.st.args[c.rank] = a
	pstate := &persistState{
		slices: make(map[sliceKey]*device.Buffer),
		bounds: make(map[[2]int][]int),
	}
	return &runCtx{co: co, st: ps.st, rank: c.rank, pers: pstate}, id, nil
}

// persistColl completes Init: a flat ring gets its resident sender, and
// the handle's stream task runs every wave through the shared wave
// skeleton around body.
func (c *Comm) persistColl(s *device.Stream, rc *runCtx, id int, kind string, algo Algorithm,
	parts int, bytes int64, body func(rc *runCtx, a *opArgs)) *PersistentColl {
	co := c.core
	if algo == AlgoFlatRing && co.n > 1 {
		rc.sender = newPersistSender(co, rc.st, c.rank, rc.pers,
			fmt.Sprintf("%s/persist%d/sender/r%d", co.cfg.Name, id, c.rank))
	}
	pc := &PersistentColl{c: c, st: rc.st, pers: rc.pers, algo: algo, op: kind, parts: parts}
	pc.task = s.NewPersistentTask(fmt.Sprintf("%s/%s-persist%d/r%d", co.cfg.Name, kind, id, c.rank),
		func(p *sim.Proc) {
			rc.p = p
			c.wave(rc, kind, bytes, body)
		})
	return pc
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
	rc, id, err := c.persistBegin("allreduce", &opArgs{send: send, recv: recv, count: count}, dt, op, parts)
	if err != nil {
		return nil, err
	}

	// Plan selection, once: the forced family (SetAlgorithm, fed by the
	// tuning table) or the backend's built-in size-based split.
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	algo, chunk, _ := c.allReduceAlgo(count, bytes)
	if algo == AlgoHierarchical && parts > 1 {
		// Align the pipeline chunk with the partitions so the leader ring
		// consumes partitions as the application marks them ready.
		chunk = int64((count+parts-1)/parts) * esz
	}

	k := co.fab.Kernel()
	pstate := rc.pers
	if parts > 1 {
		pstate.gate = newPartGate(k, parts)
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
			rcEng := &runCtx{co: co, st: rc.st, rank: c.rank, pers: pstate}
			rcEng.sender = newPersistSender(co, rc.st, c.rank, pstate,
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
	return c.persistColl(s, rc, id, "allreduce", algo, parts, bytes, func(rc *runCtx, a *opArgs) {
		rc.runAllReduce(algo, dt, op, count, chunk)
	}), nil
}

// BcastInit builds a persistent broadcast handle (the MPI_Bcast_init
// analogue): validation, schedule selection (binomial tree, or the chunked
// hierarchical fan-out when forced on a multi-node shape), and scratch-pipe
// setup run once; steady-state waves replay the schedule allocation-free.
// Every rank must call Init with consistent arguments and in the same
// handle order. Broadcast handles are not partitionable (only the root
// produces payload).
func (c *Comm) BcastInit(send, recv *device.Buffer, count int, dt Datatype, root int, s *device.Stream) (*PersistentColl, error) {
	if err := c.validateArgs("broadcast", send, recv, count, dt, nil, root); err != nil {
		return nil, err
	}
	rc, id, err := c.persistBegin("broadcast", &opArgs{send: send, recv: recv, count: count, root: root}, dt, Sum, 1)
	if err != nil {
		return nil, err
	}
	algo, chunk := c.resolveAlgo(count)
	if algo != AlgoHierarchical {
		algo = AlgoTree // broadcast's flat schedule is always the binomial tree
	}
	return c.persistColl(s, rc, id, "broadcast", algo, 1, int64(count)*int64(dt.Size()), func(rc *runCtx, a *opArgs) {
		rc.runBroadcast(algo, dt, count, root, chunk)
	}), nil
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
	bytes := int64(count) * int64(dt.Size())
	if err := c.checkBlocks("allgather-init", "allgather recv", recv, bytes); err != nil {
		return nil, err
	}
	rc, id, err := c.persistBegin("allgather", &opArgs{send: send, recv: recv, count: count}, dt, Sum, 1)
	if err != nil {
		return nil, err
	}
	algo, chunk := c.resolveAlgo(count)
	if algo != AlgoHierarchical {
		algo = AlgoFlatRing // allgather's flat schedule is the block ring
	}
	if algo == AlgoHierarchical {
		hp := co.hier()
		if hp.localIdx[c.rank] == 0 && len(hp.leaders) > 1 {
			// Resident phase-B forwarder: per step, ship one node's
			// block-set to the right-hand leader (hierAllGather posts the
			// source node index as the job).
			rc.pers.fwd = newResident(co, rc.st, c.rank, rc.pers,
				fmt.Sprintf("%s/persist%d/hier/fwd/r%d", co.cfg.Name, id, c.rank),
				func(rc *runCtx, srcNode int) {
					right := hp.leaders[(hp.nodeIdx[rc.rank]+1)%len(hp.leaders)]
					for _, r := range hp.locals[srcNode] {
						rc.putDirect(right, rc.slice(rc.st.args[right].recv, int64(r)*bytes, bytes),
							rc.slice(rc.st.args[rc.rank].recv, int64(r)*bytes, bytes), bytes)
					}
				})
		}
	}
	return c.persistColl(s, rc, id, "allgather", algo, 1, bytes, func(rc *runCtx, a *opArgs) {
		rc.runAllGather(algo, dt, count, chunk)
	}), nil
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
		pc.st.freePipes()
		pc.st.pipes = nil
	}
}
