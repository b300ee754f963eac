package ccl

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/device"
	"mpixccl/internal/elem"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// core is the state shared by all rank handles of one communicator.
type core struct {
	cfg      Config
	fab      *fabric.Fabric
	devs     []*device.Device
	n        int
	faults   Injector        // nil = no injection
	failStop fabric.FailStop // nil = no fail-stop crashes
	watchdog time.Duration   // 0 = collective watchdog disarmed
	rankIDs  []int           // global identities for fault scoping; nil = local ranks

	ops     map[int]*opState
	p2pPost map[[2]int]*sim.Chan[*p2pSlot] // receiver-posted buffers per (src,dst)
	algos   []*Algo                        // registered custom schedules
	split   *splitState                    // in-flight CommSplit rendezvous
	reg     *metrics.Registry              // nil = no instrumentation
	chanCap int                            // 0 = no cap; see SetChannelCap

	// Capability sets flattened from cfg's maps at init: validate runs on
	// every operation of every rank, so the per-call map lookups are cached.
	dtOK [int(Float64) + 1]bool
	opOK [int(Min) + 1]bool

	putNames map[[2]int]string // memoized putAsync process names

	hierCache *hierPlan // lazily built node hierarchy (see hier.go)

	// Compiled-plan caches (see compiled.go): the cost-model topology, the
	// plans per (op, block, root, key) call shape, and the converted MSCCL
	// schedules per (algo, count, element size). Lazily built; safe without
	// locks under the cooperative scheduler.
	compTopoCache *comp.Topo
	compPlans     map[compPlanKey]*comp.Plan
	customPlans   map[customPlanKey]*customPlan

	// persist holds in-flight persistent-op Init rendezvous, keyed by each
	// rank's persistent-op ordinal (ranks must Init handles in the same
	// order; see persistent.go).
	persist map[int]*persistShared

	// Metric instruments resolved once at SetMetrics. The counting paths
	// below run per launch and per fabric transfer; resolving instruments
	// there would build a label map per call. All nil (method no-ops)
	// until a registry is wired.
	mLaunchColl  *metrics.Counter
	mLaunchP2P   *metrics.Counter
	mLaunchGroup *metrics.Counter
	mGroupCalls  *metrics.Counter
	mGroupFused  *metrics.Counter
	mXferBytes   *metrics.Counter

	// Free lists for the per-collective hot-path objects. Every collective
	// allocates one opArgs per rank and one runCtx per stream task (plus one
	// per putAsync helper); recycling them through the shared core keeps the
	// enqueue path's steady-state allocation rate flat. Safe without locks:
	// sim procs are serialized by the scheduler token.
	argsFree []*opArgs
	ctxFree  []*runCtx

	// published lists, per rank, the pipes the rank has put direct-read
	// references in since its last settle (one entry per put; the backing
	// arrays are reused, so the list costs no steady-state allocation).
	published [][]*pipe
}

// newArgs returns a recycled (or fresh) opArgs holding the call arguments.
func (co *core) newArgs(send, recv *device.Buffer, count, root int) *opArgs {
	if n := len(co.argsFree); n > 0 {
		a := co.argsFree[n-1]
		co.argsFree = co.argsFree[:n-1]
		*a = opArgs{send: send, recv: recv, count: count, root: root}
		return a
	}
	return &opArgs{send: send, recv: recv, count: count, root: root}
}

// getCtx returns a recycled (or fresh) runCtx for one process's part of a
// collective. Return it with putCtx when the process is done with it.
func (co *core) getCtx(st *opState, rank int, p *sim.Proc) *runCtx {
	if n := len(co.ctxFree); n > 0 {
		rc := co.ctxFree[n-1]
		co.ctxFree = co.ctxFree[:n-1]
		*rc = runCtx{co: co, st: st, rank: rank, p: p}
		return rc
	}
	return &runCtx{co: co, st: st, rank: rank, p: p}
}

func (co *core) putCtx(rc *runCtx) {
	*rc = runCtx{}
	co.ctxFree = append(co.ctxFree, rc)
}

// supportsDatatype is the cached form of cfg.Datatypes[dt].
func (co *core) supportsDatatype(dt Datatype) bool {
	if i := int(dt); i >= 0 && i < len(co.dtOK) {
		return co.dtOK[i]
	}
	return false
}

// supportsOp is the cached form of cfg.Ops[op].
func (co *core) supportsOp(op RedOp) bool {
	if i := int(op); i >= 0 && i < len(co.opOK) {
		return co.opOK[i]
	}
	return false
}

// putName memoizes the helper-process name for a (from, to) put, keeping
// fmt.Sprintf off the per-step spawn path of ring and tree algorithms.
func (co *core) putName(from, to int) string {
	key := [2]int{from, to}
	if n, ok := co.putNames[key]; ok {
		return n
	}
	n := fmt.Sprintf("%s/put/r%d-%d", co.cfg.Name, from, to)
	co.putNames[key] = n
	return n
}

// SetMetrics wires a registry into the communicator (shared by every rank
// handle): kernel-launch counts, group-call fusion sizes, and fabric
// transfer volume, labeled by backend. A nil registry disables
// instrumentation. Call before issuing operations.
func (c *Comm) SetMetrics(reg *metrics.Registry) {
	co := c.core
	co.reg = reg
	reg.Gauge("ccl_channels",
		"Fabric channels the backend drives per transfer (its configured budget).",
		metrics.Labels{"backend": co.cfg.Name}).Set(float64(co.cfg.Channels))
	lbl := metrics.Labels{"backend": co.cfg.Name}
	co.mLaunchColl = reg.Counter("ccl_launches_total",
		"Stream-task launches by kind (collective, p2p, group).",
		metrics.Labels{"backend": co.cfg.Name, "kind": "collective"})
	co.mLaunchP2P = reg.Counter("ccl_launches_total",
		"Stream-task launches by kind (collective, p2p, group).",
		metrics.Labels{"backend": co.cfg.Name, "kind": "p2p"})
	co.mLaunchGroup = reg.Counter("ccl_launches_total",
		"Stream-task launches by kind (collective, p2p, group).",
		metrics.Labels{"backend": co.cfg.Name, "kind": "group"})
	co.mGroupCalls = reg.Counter("ccl_group_calls_total",
		"GroupStart/GroupEnd fused submissions.", lbl)
	co.mGroupFused = reg.Counter("ccl_group_fused_ops_total",
		"Send/Recv operations fused into group submissions.", lbl)
	co.mXferBytes = reg.Counter("ccl_transfer_bytes_total",
		"Payload bytes moved over the fabric, per backend.", lbl)
}

// countLaunch records one stream-task launch: kind is "collective", "p2p",
// or "group" (a fused group pays one launch for all its operations — the
// advantage the fusion counter quantifies).
func (co *core) countLaunch(kind string) {
	switch kind {
	case "collective":
		co.mLaunchColl.Inc()
	case "p2p":
		co.mLaunchP2P.Inc()
	default:
		co.mLaunchGroup.Inc()
	}
}

// countGroup records one GroupEnd: n fused sends+recvs under one launch.
func (co *core) countGroup(n int) {
	co.mGroupCalls.Inc()
	co.mGroupFused.Add(float64(n))
}

// countXfer records payload bytes moved over the fabric on this
// communicator's behalf (scratch-pipeline hops included).
func (co *core) countXfer(bytes int64) {
	co.mXferBytes.Add(float64(bytes))
}

// Comm is one rank's handle on a CCL communicator (ncclComm_t analogue).
// All rank handles are created together by NewComms, matching
// ncclCommInitAll / the MPI-bootstrapped ncclCommInitRank flow.
type Comm struct {
	core  *core
	rank  int
	seq   int       // this rank's collective sequence number
	pseq  int       // this rank's persistent-op ordinal (Init rendezvous key)
	group *groupOps // non-nil between GroupStart and GroupEnd
	// asyncErr is a failure verdict raised inside this rank's stream task
	// (the collective watchdog firing on a dead peer), where the issuing
	// call has already returned. Callers collect it with TakeAsyncErr
	// after synchronizing the stream.
	asyncErr error
	// algo/algoChunk force a schedule family for this rank's collectives
	// (SetAlgorithm); the zero values keep the built-in size-based split.
	algo      Algorithm
	algoChunk int64
}

type groupOps struct {
	sends []p2pOp
	recvs []p2pOp
	// streams used by the grouped calls; GroupEnd enqueues on the first.
	stream *device.Stream
}

type p2pOp struct {
	peer  int
	buf   *device.Buffer
	bytes int64
}

type p2pSlot struct {
	buf   *device.Buffer
	bytes int64
	done  *sim.Event
}

// NewComms builds a communicator over the given devices and returns the
// per-rank handles. It validates that the backend can drive every device
// and consults the fault hook (explicit cfg.Faults, then the legacy
// InjectFailure flag, then any agent attached to the fabric) for an
// injected comm-init failure: if any rank's init is failed, the whole
// creation fails, as ncclCommInitAll would.
func NewComms(fab *fabric.Fabric, devs []*device.Device, cfg Config) ([]*Comm, error) {
	if len(devs) == 0 {
		return nil, &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Msg: "no devices"}
	}
	for _, d := range devs {
		if !cfg.SupportsKind(d.Kind) {
			return nil, &Error{Backend: cfg.Name, Result: ErrUnsupportedDevice,
				Msg: fmt.Sprintf("cannot drive %s", d)}
		}
	}
	inj := cfg.Faults
	if inj == nil && cfg.InjectFailure != Success {
		inj = StaticFailure(cfg.Name, cfg.InjectFailure)
	}
	if inj == nil && fab != nil {
		if a, ok := fab.Faults().(Injector); ok {
			inj = a
		}
	}
	if inj != nil {
		now := fab.Kernel().Now()
		for r := range devs {
			if err := inj.CommInitError(cfg.Name, r, now); err != nil {
				return nil, err
			}
		}
	}
	var fs fabric.FailStop
	if f, ok := inj.(fabric.FailStop); ok {
		fs = f
	} else if fab != nil {
		fs = fab.FailStop()
	}
	co := &core{
		cfg: cfg, fab: fab, devs: devs, n: len(devs), faults: inj, failStop: fs,
		ops:       make(map[int]*opState),
		p2pPost:   make(map[[2]int]*sim.Chan[*p2pSlot]),
		putNames:  make(map[[2]int]string),
		persist:   make(map[int]*persistShared),
		published: make([][]*pipe, len(devs)),
	}
	for dt, ok := range cfg.Datatypes {
		if i := int(dt); i >= 0 && i < len(co.dtOK) {
			co.dtOK[i] = ok
		}
	}
	for op, ok := range cfg.Ops {
		if i := int(op); i >= 0 && i < len(co.opOK) {
			co.opOK[i] = ok
		}
	}
	comms := make([]*Comm, len(devs))
	for r := range devs {
		comms[r] = &Comm{core: co, rank: r}
	}
	return comms, nil
}

// Rank returns this handle's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.core.n }

// Device returns the rank's device.
func (c *Comm) Device() *device.Device { return c.core.devs[c.rank] }

// Backend returns the backend configuration name (e.g. "nccl").
func (c *Comm) Backend() string { return c.core.cfg.Name }

// Config returns the backend personality.
func (c *Comm) Config() Config { return c.core.cfg }

// SetWatchdog arms the collective watchdog with deadline d (shared by all
// rank handles; 0 disarms). When armed, a rank's stream task that waits
// longer than d for its peers — at the collective start rendezvous or on a
// point-to-point match — abandons the operation with an ErrRankDead
// verdict instead of blocking forever on a fail-stopped peer. The verdict
// is asynchronous (the issuing call already returned); collect it with
// TakeAsyncErr after synchronizing the stream. The deadline must exceed
// the largest healthy inter-rank skew or slow ranks will be misread as
// dead.
func (c *Comm) SetWatchdog(d time.Duration) { c.core.watchdog = d }

// Watchdog reports the armed watchdog deadline (0 = disarmed).
func (c *Comm) Watchdog() time.Duration { return c.core.watchdog }

// TakeAsyncErr returns and clears this rank's asynchronous failure
// verdict, if any. Call after Stream.Synchronize: a watchdog abort lets
// the stream task complete, so synchronization returns normally and the
// verdict is only visible here.
func (c *Comm) TakeAsyncErr() error {
	err := c.asyncErr
	c.asyncErr = nil
	return err
}

// raiseAsync records an asynchronous failure verdict, keeping the first.
func (c *Comm) raiseAsync(err error) {
	if c.asyncErr == nil {
		c.asyncErr = err
	}
}

// SetRankIDs gives the communicator's ranks global identities (shared by
// every rank handle; ids[r] is local rank r's identity, typically its MPI
// world rank). Fault rules and failure verdicts then probe and report
// those identities instead of the communicator-local numbering — what
// keeps a crash rule naming world rank 5 from re-firing on whichever
// survivor inherits local rank 5 after a shrink. nil restores the default
// identity mapping.
func (c *Comm) SetRankIDs(ids []int) {
	if ids != nil && len(ids) != c.core.n {
		panic(fmt.Sprintf("ccl: %d rank ids for %d ranks", len(ids), c.core.n))
	}
	c.core.rankIDs = ids
}

// RankIDs returns the global identity mapping (nil = local ranks).
func (c *Comm) RankIDs() []int { return c.core.rankIDs }

// rankID resolves a local rank to the identity fault hooks see.
func (co *core) rankID(r int) int {
	if co.rankIDs != nil {
		return co.rankIDs[r]
	}
	return r
}

// SetChannelCap caps how many fabric channels this communicator's
// transfers drive (0 clears the cap; values above the configured budget
// have no effect). The cap is shared by every rank handle — it is the
// dispatch layer's reaction to a degraded link: drive fewer channels so
// concurrent flows keep a fair share of the shrunken pool.
func (c *Comm) SetChannelCap(n int) {
	if n < 0 {
		n = 0
	}
	c.core.chanCap = n
}

// ChannelCap reports the active channel-budget cap (0 = none).
func (c *Comm) ChannelCap() int { return c.core.chanCap }

func (c *Comm) kernel() *sim.Kernel { return c.core.fab.Kernel() }

// opState coordinates one collective across all ranks.
type opState struct {
	seq   int
	args  []*opArgs
	start *sim.Barrier
	done  int
	pipes map[[2]int]*pipe
	// aborted marks a collective judged dead by the watchdog: some rank
	// timed out at the start rendezvous, so the algorithm can no longer
	// run this sequence. Ranks arriving later fail fast with the same
	// verdict instead of waiting out their own deadline.
	aborted bool
	// abortErr is the shared mid-schedule verdict (first writer wins): a
	// transfer hit an active network cut after the start rendezvous, so
	// the whole sequence is void — including on ranks whose own hops
	// stayed on one side and "succeeded" with partial data. Each rank
	// raises it as its async verdict when its schedule task finishes.
	abortErr error
	// scratch is per-rank staging space a compiled plan requested
	// (comp.Plan.Scratch); allocated by the first rank to execute the
	// plan, freed with the op. Nil entries mean the rank needs none.
	scratch []*device.Buffer
	// vplan is the alltoallv move program built at run time from every
	// rank's counts (first arriving rank builds it; see compiled.go).
	vplan any
}

type opArgs struct {
	send, recv *device.Buffer
	count      int
	root       int
	// Vector-collective shapes (alltoallv): per-peer element counts and
	// displacements. The compiled executor reads every rank's counts after
	// the start rendezvous to build the move program.
	scounts, sdispls, rcounts, rdispls []int
}

// join registers rank args for collective #seq and returns the shared state.
func (co *core) join(seq, rank int, a *opArgs) *opState {
	st, ok := co.ops[seq]
	if !ok {
		st = &opState{
			seq:   seq,
			args:  make([]*opArgs, co.n),
			start: sim.NewBarrier(co.fab.Kernel(), co.n),
			pipes: make(map[[2]int]*pipe),
		}
		co.ops[seq] = st
	}
	st.args[rank] = a
	return st
}

// finish releases op state once every rank's task completed, recycling the
// per-rank argument records onto the core free list.
func (co *core) finish(st *opState) {
	st.done++
	if st.done == co.n {
		st.freePipes()
		for _, b := range st.scratch {
			if b != nil {
				b.Free()
			}
		}
		st.scratch = nil
		for i, a := range st.args {
			if a != nil {
				st.args[i] = nil
				*a = opArgs{}
				co.argsFree = append(co.argsFree, a)
			}
		}
		delete(co.ops, st.seq)
	}
}

// freePipes releases the slot buffers of every pipe the op created.
func (st *opState) freePipes() {
	for _, pp := range st.pipes {
		for _, s := range pp.slots {
			s.Free()
		}
	}
}

// pipe is a credit-managed pipeline between a directed rank pair, modeling
// NCCL's bounded FIFO buffers (NCCL_BUFFSIZE slots). A put normally stages
// nothing: it publishes a reference to the sender's source region in
// refs[slot] and the consumer reads the peer's memory directly (NCCL's
// directRecv). The slot buffer holds the bytes only when they were staged
// (see put and settle).
type pipe struct {
	data   *sim.Chan[int]
	credit *sim.Chan[int]
	slots  []*device.Buffer
	refs   [pipeSlots]*device.Buffer // published source per slot; nil = read the slot
}

const pipeSlots = 2

// pipe returns (creating on first use) the pair pipe with slot capacity
// slotBytes at the receiver's device.
func (st *opState) pipe(co *core, from, to int, slotBytes int64) *pipe {
	key := [2]int{from, to}
	pp, ok := st.pipes[key]
	if !ok {
		k := co.fab.Kernel()
		pp = &pipe{
			data:   sim.NewChan[int](k, pipeSlots+1),
			credit: sim.NewChan[int](k, pipeSlots+1),
			slots:  make([]*device.Buffer, pipeSlots),
		}
		for i := range pp.slots {
			pp.slots[i] = co.devs[to].MustMallocScratch(slotBytes)
			pp.credit.TrySend(i)
		}
		st.pipes[key] = pp
	}
	return pp
}

// runCtx is the execution context of one rank's part of a collective.
type runCtx struct {
	co   *core
	st   *opState
	rank int
	p    *sim.Proc

	// Persistent-op hooks, nil on the one-shot path (see persistent.go):
	// pers carries the handle's caches and partition gate, sender is this
	// process's resident async-put helper (replacing per-step Spawns).
	pers   *persistState
	sender *resident[putJob]

	// chunk overrides the fabric pipeline granularity for this context's
	// transfers (compiled plans carry a searched chunk size; 0 = backend
	// default).
	chunk int64
}

func (rc *runCtx) dev() *device.Device { return rc.co.devs[rc.rank] }

func (rc *runCtx) opts() fabric.Opts {
	o := rc.co.fabOpts()
	if rc.chunk > 0 {
		o.ChunkBytes = rc.chunk
	}
	return o
}

// fabOpts builds the transfer options, honoring any channel-budget cap the
// dispatch layer applied for a degraded link.
func (co *core) fabOpts() fabric.Opts {
	ch := co.cfg.Channels
	if co.chanCap > 0 && ch > co.chanCap {
		ch = co.chanCap
	}
	return fabric.Opts{Channels: ch, ChunkBytes: co.cfg.ChunkBytes}
}

// xfer moves bytes between devices applying the backend's inter-node
// penalty on cross-node hops; noCopy prices the hop in full without moving
// the bytes. A hop severed by a network partition aborts the sequence: the
// copy is skipped, the shared verdict is recorded, false is returned, and
// the schedule keeps draining — same-side hops still complete and the pipe
// signaling below still fires, so every rank finishes in bounded virtual
// time instead of stranding peers mid-collective.
func (rc *runCtx) xfer(dst, src *device.Buffer, n int64, noCopy bool) bool {
	rc.co.countXfer(n)
	o := rc.opts()
	o.NoCopy = noCopy
	d, err := rc.co.fab.TryTransfer(rc.p, dst, src, n, o)
	if err != nil {
		if !errors.Is(err, fabric.ErrPartitioned) {
			panic(err)
		}
		rc.st.aborted = true
		if rc.st.abortErr == nil {
			rc.st.abortErr = rc.co.severedVerdict(rc.p.Now())
		}
		return false
	}
	pen := rc.co.cfg.InterNodePenalty
	if pen > 1 && src.Device() != nil && dst.Device() != nil && src.Device().Node != dst.Device().Node {
		rc.p.Sleep(time.Duration(float64(d) * (pen - 1)))
	}
	return true
}

// putAsync runs put on a helper process so the caller can receive
// concurrently — rings are full duplex, exactly like the hardware channels
// they run on. Wait on the returned counter before reusing src.
func (rc *runCtx) putAsync(to int, src *device.Buffer, n int64, slotBytes int64) *sim.Counter {
	if rc.sender != nil {
		return rc.sender.post(putJob{to: to, src: src, n: n, slotBytes: slotBytes})
	}
	k := rc.p.Kernel()
	done := sim.NewCounter(k, 1)
	co, st, rank := rc.co, rc.st, rc.rank // rc may be recycled before p runs
	k.Spawn(co.putName(rank, to), func(p *sim.Proc) {
		sub := co.getCtx(st, rank, p)
		sub.put(to, src, n, slotBytes)
		co.putCtx(sub)
		done.Done()
	})
	return done
}

// put ships n bytes from src to rank "to" and signals it; blocks on
// flow-control credits. The hop is priced in full, but when the fabric
// delivers verbatim no bytes move: the slot carries a reference to src,
// which the sender must leave unchanged until the consumer takes it or
// settle stages it. A fabric that may corrupt or verifies payloads gets
// the bytes copied into the slot, so retransmits keep their virtual time; a
// severed hop publishes nothing and the slot keeps its old bytes.
func (rc *runCtx) put(to int, src *device.Buffer, n int64, slotBytes int64) {
	pp := rc.st.pipe(rc.co, rc.rank, to, slotBytes)
	rc.p.Sleep(rc.co.cfg.StepCost)
	slot := pp.credit.Recv(rc.p)
	if rc.co.fab.Verbatim() {
		if rc.xfer(pp.slots[slot], src, n, true) {
			pp.refs[slot] = src
			rc.co.published[rc.rank] = append(rc.co.published[rc.rank], pp)
		}
	} else {
		rc.xfer(rc.slice(pp.slots[slot], 0, n), src, n, false)
	}
	pp.data.Send(rc.p, slot)
}

// get blocks until a put from rank "from" is ready and returns its slot and
// the region to read: the sender's source (a direct read) or the staged
// slot. The caller must read it before it next blocks — the sender is free
// to change a taken region — and then return the credit with release.
func (rc *runCtx) get(from int, slotBytes int64) (int, *device.Buffer) {
	pp := rc.st.pipe(rc.co, from, rc.rank, slotBytes)
	slot := pp.data.Recv(rc.p)
	if ref := pp.refs[slot]; ref != nil {
		pp.refs[slot] = nil
		return slot, ref
	}
	return slot, pp.slots[slot]
}

func (rc *runCtx) release(from, slot int, slotBytes int64) {
	pp := rc.st.pipe(rc.co, from, rc.rank, slotBytes)
	pp.credit.TrySend(slot)
}

// settle stages every reference this rank published that no consumer has
// taken yet, copying the bytes into their slots: afterwards the rank may
// overwrite or free its buffers while a straggling peer still has to read.
// It runs where the sender's regions stop being stable — at the end of the
// rank's part of an op or wave, at a compiled plan's phase boundary, and
// before a scratch source is freed. The copy was already priced by put.
func (rc *runCtx) settle() {
	pub := rc.co.published[rc.rank]
	for _, pp := range pub {
		for i, ref := range pp.refs {
			if ref != nil {
				copy(pp.slots[i].Bytes(), ref.Bytes())
				pp.refs[i] = nil
			}
		}
	}
	clear(pub)
	rc.co.published[rc.rank] = pub[:0]
}

// freeScratch settles and frees a scratch buffer puts may have sourced.
func (rc *runCtx) freeScratch(b *device.Buffer) {
	rc.settle()
	b.Free()
}

// putDirect ships n bytes straight into dst (a region of the receiving
// rank's user buffer that is written exactly once) and signals rank "to".
func (rc *runCtx) putDirect(to int, dst, src *device.Buffer, n int64) {
	pp := rc.st.pipe(rc.co, rc.rank, to, 1)
	rc.p.Sleep(rc.co.cfg.StepCost)
	rc.xfer(dst, src, n, false)
	pp.data.Send(rc.p, 0)
}

// waitDirect consumes one direct-write signal from rank "from".
func (rc *runCtx) waitDirect(from int) {
	pp := rc.st.pipe(rc.co, from, rc.rank, 1)
	pp.data.Recv(rc.p)
}

// reduceTo writes dst = a ⊕ b over count elements in one pass (dst may be
// a), charging device time.
func (rc *runCtx) reduceTo(op RedOp, dt Datatype, dst, a, b *device.Buffer, count int) {
	elem.ReduceTo(op.elemOp(), dt.kind(), dst.Bytes(), a.Bytes(), b.Bytes(), count)
	rc.p.Sleep(rc.dev().ReduceTime(int64(count) * int64(dt.Size())))
}

// inject consults the fault hooks for an error to fail this call with.
// The fail-stop probe runs first: a dead rank's own call fails fast with
// ErrRankDead before any work enqueues, so it never joins the collective
// its surviving peers will time out on. The returned error is nil when no
// hook is attached or no rule fires.
func (c *Comm) inject(op string) error {
	co := c.core
	if co.faults == nil && co.failStop == nil {
		return nil
	}
	now := co.fab.Kernel().Now()
	id := co.rankID(c.rank)
	if co.failStop != nil && co.failStop.OpCrash(co.cfg.Name, op, id, now) {
		return &Error{Backend: co.cfg.Name, Result: ErrRankDead, Op: op, Rank: id,
			Msg: "rank fail-stopped"}
	}
	if co.faults == nil {
		return nil
	}
	if e := co.faults.OpError(co.cfg.Name, op, id, now); e != nil {
		e.Op, e.Rank = op, id
		return e
	}
	return nil
}

// deadVerdict builds the watchdog's ErrRankDead verdict for a rank whose
// collective timed out, attributing it to a known-dead peer when the
// fail-stop detector can name one (Rank -1 otherwise).
func (co *core) deadVerdict(op string, now time.Duration) *Error {
	if co.failStop != nil {
		if dead := co.failStop.DeadRanks(now); len(dead) > 0 {
			return &Error{Backend: co.cfg.Name, Result: ErrRankDead, Op: op, Rank: dead[0],
				Msg: fmt.Sprintf("peer fail-stopped; watchdog fired after %v", co.watchdog)}
		}
	}
	return &Error{Backend: co.cfg.Name, Result: ErrRankDead, Op: op, Rank: -1,
		Msg: fmt.Sprintf("watchdog fired after %v; failed peer unknown", co.watchdog)}
}

// severedVerdict builds the ErrUnreachable verdict for a schedule whose
// transfer crossed an active network cut. The fabric routes by node, so the
// specific far-side rank is unknown here (Rank -1); the membership layer
// re-derives the severed peers from the partition oracle.
func (co *core) severedVerdict(now time.Duration) *Error {
	return &Error{Backend: co.cfg.Name, Result: ErrUnreachable, Rank: -1,
		Msg: fmt.Sprintf("transfer severed by network partition at %v", now)}
}

// delay charges any injected straggler latency for this rank's part of op.
func (c *Comm) delay(p *sim.Proc, op string) {
	co := c.core
	if co.faults == nil {
		return
	}
	if d := co.faults.OpDelay(co.cfg.Name, op, co.rankID(c.rank), p.Now()); d > 0 {
		p.Sleep(d)
	}
}

// validate checks a collective call against the fault hook and the backend
// capability matrix. opName is the operation for fault-rule scoping.
func (c *Comm) validate(opName string, send, recv *device.Buffer, count int, dt Datatype, op *RedOp, root int) error {
	if err := c.inject(opName); err != nil {
		return err
	}
	return c.validateArgs(opName, send, recv, count, dt, op, root)
}

// validateArgs is validate without the fault-hook probe: persistent-op
// Init uses it so that building a handle does not consume a crash rule's
// call budget — fault rules scoped to an operation count executions
// (Start), not plan construction.
func (c *Comm) validateArgs(opName string, send, recv *device.Buffer, count int, dt Datatype, op *RedOp, root int) error {
	cfg := &c.core.cfg
	if count < 0 {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "negative count"}
	}
	if !c.core.supportsDatatype(dt) {
		return &Error{Backend: cfg.Name, Result: ErrUnsupportedDatatype, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("datatype %v not supported", dt)}
	}
	if op != nil && !c.core.supportsOp(*op) {
		return &Error{Backend: cfg.Name, Result: ErrUnsupportedOp, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("reduction %v not supported", *op)}
	}
	if root < 0 || root >= c.core.n {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("root %d out of range", root)}
	}
	bytes := int64(count) * int64(dt.Size())
	if send != nil && send.Len() < bytes {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "send buffer too small"}
	}
	if recv != nil && recv.Len() < bytes {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "recv buffer too small"}
	}
	return nil
}

// checkBlocks rejects a buffer that is nil or smaller than the n blocks of
// blockBytes a gathering or scattering collective moves through it.
func (c *Comm) checkBlocks(opName, what string, buf *device.Buffer, blockBytes int64) error {
	if buf == nil || buf.Len() < blockBytes*int64(c.core.n) {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: what + " buffer too small"}
	}
	return nil
}

// launch charges the backend's fixed operation overhead plus any
// size-triggered step overhead.
func (rc *runCtx) launch(bytes int64) {
	rc.co.countLaunch("collective")
	rc.p.Sleep(rc.co.cfg.Launch + rc.co.cfg.stepExtra(bytes))
}
