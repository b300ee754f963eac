package mpi

import (
	"fmt"
	"sort"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// Job is one MPI application run: a set of ranks placed on devices,
// sharing a fabric and a protocol profile.
type Job struct {
	fab     *fabric.Fabric
	profile Profile
	devices []*device.Device
	world   *commCtx
	nextCtx int
	metrics *metrics.Registry // nil = no instrumentation
}

// NewJob creates a job with one rank per given device, in rank order.
func NewJob(fab *fabric.Fabric, profile Profile, devices []*device.Device) *Job {
	if len(devices) == 0 {
		panic("mpi: job needs at least one device")
	}
	j := &Job{fab: fab, profile: profile, devices: devices}
	j.world = j.newCommCtx(identityGroup(len(devices)))
	return j
}

// NewJobOnSystem places one rank per accelerator of the system, in global
// device order (the mpirun default of consecutive local ranks per node).
func NewJobOnSystem(fab *fabric.Fabric, profile Profile, sys *topology.System, nranks int) *Job {
	if nranks <= 0 || nranks > sys.NumDevices() {
		panic(fmt.Sprintf("mpi: %d ranks on %d devices", nranks, sys.NumDevices()))
	}
	return NewJob(fab, profile, sys.Devices()[:nranks])
}

// Size returns the world communicator size.
func (j *Job) Size() int { return len(j.devices) }

// Profile returns the job's protocol constants.
func (j *Job) Profile() Profile { return j.profile }

// SetMetrics wires a registry into the runtime's hot paths: per-send
// protocol-choice counters (eager vs rendezvous) and byte totals. A nil
// registry disables instrumentation. Call before Run.
func (j *Job) SetMetrics(reg *metrics.Registry) { j.metrics = reg }

// Metrics returns the wired registry (nil when none).
func (j *Job) Metrics() *metrics.Registry { return j.metrics }

// countSend records one point-to-point send's protocol choice. The eager /
// rendezvous split is the runtime's small- vs large-message personality
// (Profile.EagerThreshold), so exposing it per run is what lets the paper's
// protocol-crossover claims be checked after the fact.
func (j *Job) countSend(protocol string, bytes int64) {
	if j.metrics == nil {
		return
	}
	lbl := metrics.Labels{"protocol": protocol, "profile": j.profile.Name}
	j.metrics.Counter("mpi_sends_total",
		"Point-to-point sends by wire protocol (eager or rendezvous).", lbl).Inc()
	j.metrics.Counter("mpi_send_bytes_total",
		"Point-to-point payload bytes by wire protocol.", lbl).Add(float64(bytes))
}

// Fabric returns the transport the job communicates over.
func (j *Job) Fabric() *fabric.Fabric { return j.fab }

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// commCtx is the state shared by all ranks of one communicator: the
// matching engines and collective rendezvous helpers, indexed by the
// communicator-local rank.
type commCtx struct {
	job   *Job
	id    int
	group []int // world ranks, indexed by local rank
	match []*matchCtx
	split *splitPending
	dup   *splitPending
	sub   map[string]*subsetPending // in-flight Subset rendezvous by member list
}

func (j *Job) newCommCtx(group []int) *commCtx {
	ctx := &commCtx{job: j, id: j.nextCtx, group: group}
	j.nextCtx++
	ctx.match = make([]*matchCtx, len(group))
	for i := range ctx.match {
		ctx.match[i] = &matchCtx{}
	}
	return ctx
}

// Comm is one rank's handle on a communicator, valid only inside that
// rank's process. It carries the rank's device and sim process, so all
// blocking MPI calls are methods on Comm.
type Comm struct {
	ctx     *commCtx
	rank    int
	proc    *sim.Proc
	dev     *device.Device
	collSeq int
	// hierPlan caches this rank's node hierarchy (coll_hier.go); a
	// communicator's group is immutable, so it never invalidates.
	hierPlan *nodePlan
}

// Rank returns the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ctx.group) }

// WorldRank returns the rank's id in the world communicator.
func (c *Comm) WorldRank() int { return c.ctx.group[c.rank] }

// WorldRankOf returns the world rank of communicator-local rank r — the
// stable identity layers above key fault attribution and survivor
// agreement on, since local ranks renumber across Split/Subset.
func (c *Comm) WorldRankOf(r int) int { return c.ctx.group[r] }

// Device returns the accelerator this rank drives.
func (c *Comm) Device() *device.Device { return c.dev }

// Proc returns the rank's simulation process.
func (c *Comm) Proc() *sim.Proc { return c.proc }

// Job returns the owning job.
func (c *Comm) Job() *Job { return c.ctx.job }

// Profile returns the job's protocol constants.
func (c *Comm) Profile() Profile { return c.ctx.job.profile }

// ContextID returns the communicator's unique context id within its job,
// usable as a cache key by layers above (e.g. the xCCL comm cache).
func (c *Comm) ContextID() int { return c.ctx.id }

// RankDevice returns the device driven by communicator-local rank r.
func (c *Comm) RankDevice(r int) *device.Device {
	return c.ctx.job.devices[c.ctx.group[r]]
}

// Launch spawns every rank's process running fn and returns their
// completion counter; drive the simulation with the kernel's Run.
func (j *Job) Launch(fn func(c *Comm)) *sim.Counter {
	k := j.fab.Kernel()
	counter := sim.NewCounter(k, len(j.devices))
	for r := range j.devices {
		r := r
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			fn(&Comm{ctx: j.world, rank: r, proc: p, dev: j.devices[r]})
			counter.Done()
		})
	}
	return counter
}

// Run is the convenience harness: it launches fn on every rank, drives the
// kernel until the job completes and then closes it, returning any
// simulation error. Closing ends the world's parked daemons (device streams,
// heartbeats, persistent helpers) and any rank a deadlock stranded, so the
// world's memory is freed once the caller drops it; the kernel cannot run
// again.
func (j *Job) Run(fn func(c *Comm)) error {
	j.Launch(fn)
	k := j.fab.Kernel()
	err := k.Run()
	if cerr := k.Close(); err == nil {
		err = cerr
	}
	return err
}

// splitPending coordinates a Comm.Split collective across ranks.
type splitPending struct {
	entries map[int][2]int // local rank -> (color, key)
	arrived int
	ready   *sim.Event
	result  map[int]*commCtx // color -> new context
}

// Split partitions the communicator by color, ordering ranks in each new
// communicator by (key, old rank), like MPI_Comm_split. Every rank of the
// communicator must call it. Color < 0 (MPI_UNDEFINED) yields a nil Comm.
func (c *Comm) Split(color, key int) *Comm {
	ctx := c.ctx
	if ctx.split == nil {
		ctx.split = &splitPending{
			entries: make(map[int][2]int),
			ready:   sim.NewEvent(c.proc.Kernel()),
		}
	}
	sp := ctx.split
	sp.entries[c.rank] = [2]int{color, key}
	sp.arrived++
	if sp.arrived < len(ctx.group) {
		sp.ready.Wait(c.proc)
	} else {
		// Last arrival computes the partition for everyone.
		sp.result = make(map[int]*commCtx)
		colors := make(map[int][]int)
		for lr, ck := range sp.entries {
			if ck[0] >= 0 {
				colors[ck[0]] = append(colors[ck[0]], lr)
			}
		}
		for color, members := range colors {
			sort.Slice(members, func(a, b int) bool {
				ka, kb := sp.entries[members[a]][1], sp.entries[members[b]][1]
				if ka != kb {
					return ka < kb
				}
				return members[a] < members[b]
			})
			group := make([]int, len(members))
			for i, lr := range members {
				group[i] = ctx.group[lr]
			}
			sp.result[color] = ctx.job.newCommCtx(group)
		}
		ctx.split = nil
		sp.ready.Fire()
	}
	color0 := sp.entries[c.rank][0]
	if color0 < 0 {
		return nil
	}
	newCtx := sp.result[color0]
	for i, wr := range newCtx.group {
		if wr == ctx.group[c.rank] {
			return &Comm{ctx: newCtx, rank: i, proc: c.proc, dev: c.dev}
		}
	}
	panic("mpi: split lost a rank")
}

// subsetPending coordinates a Comm.Subset collective across its members.
type subsetPending struct {
	arrived int
	ready   *sim.Event
	result  *commCtx
}

// Subset builds a communicator containing exactly the given local ranks of
// this communicator, in the given order — MPI_Comm_create_group semantics:
// only the listed members call it, with identical member lists, and ranks
// outside the list are not involved at all. That asymmetry is what the
// ULFM-style shrink needs: the excluded (dead) ranks cannot be asked to
// participate in anything. The caller must appear in members.
func (c *Comm) Subset(members []int) *Comm {
	ctx := c.ctx
	if ctx.sub == nil {
		ctx.sub = make(map[string]*subsetPending)
	}
	key := fmt.Sprint(members)
	sp := ctx.sub[key]
	if sp == nil {
		sp = &subsetPending{ready: sim.NewEvent(c.proc.Kernel())}
		ctx.sub[key] = sp
	}
	sp.arrived++
	if sp.arrived < len(members) {
		sp.ready.Wait(c.proc)
	} else {
		group := make([]int, len(members))
		for i, lr := range members {
			group[i] = ctx.group[lr]
		}
		sp.result = ctx.job.newCommCtx(group)
		delete(ctx.sub, key)
		sp.ready.Fire()
	}
	for i, lr := range members {
		if lr == c.rank {
			return &Comm{ctx: sp.result, rank: i, proc: c.proc, dev: c.dev}
		}
	}
	panic("mpi: Subset caller not in members")
}

// Dup returns a communicator with the same group but a fresh matching
// context, so traffic on the duplicate cannot match traffic on the parent.
func (c *Comm) Dup() *Comm {
	ctx := c.ctx
	if ctx.dup == nil {
		ctx.dup = &splitPending{
			entries: make(map[int][2]int),
			ready:   sim.NewEvent(c.proc.Kernel()),
		}
	}
	dp := ctx.dup
	dp.entries[c.rank] = [2]int{0, 0}
	dp.arrived++
	if dp.arrived < len(ctx.group) {
		dp.ready.Wait(c.proc)
	} else {
		dp.result = map[int]*commCtx{0: ctx.job.newCommCtx(append([]int(nil), ctx.group...))}
		ctx.dup = nil
		dp.ready.Fire()
	}
	return &Comm{ctx: dp.result[0], rank: c.rank, proc: c.proc, dev: c.dev}
}
