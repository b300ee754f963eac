package core

import (
	"fmt"
	"strings"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/hccl"
	"mpixccl/internal/ccl/msccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/oneccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/device"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
)

// Comm is one rank's xCCL view of an MPI communicator: the same MPI
// collective API, with transparent CCL dispatch underneath. Obtain one via
// Runtime.Wrap or Runtime.Run; use it only from the owning rank's process.
type Comm struct {
	rt  *Runtime
	mpi *mpi.Comm
	// failure is the first fail-stop verdict this rank observed on the
	// communicator (ErrRankDead from the watchdog or a crash probe,
	// ErrCommRevoked after a revocation). Collectives on a failed handle
	// are no-ops; the application inspects Failure and runs the ULFM-style
	// recovery (Revoke, Shrink) or exits (Dead).
	failure error
	// dead marks the handle of a rank that fail-stopped itself: its own
	// CCL call failed fast with its own rank named. A dead rank must not
	// call Shrink — it is the rank the survivors are agreeing to exclude.
	dead bool
}

// MPI exposes the underlying MPI communicator (for p2p and escape hatches).
func (x *Comm) MPI() *mpi.Comm { return x.mpi }

// Rank returns the communicator-local rank.
func (x *Comm) Rank() int { return x.mpi.Rank() }

// Size returns the communicator size.
func (x *Comm) Size() int { return x.mpi.Size() }

// Device returns the rank's accelerator.
func (x *Comm) Device() *device.Device { return x.mpi.Device() }

// Runtime returns the owning xCCL runtime.
func (x *Comm) Runtime() *Runtime { return x.rt }

// backendConfig returns the personality of the runtime's backend without
// instantiating a communicator.
func backendConfig(kind BackendKind) (ccl.Config, error) {
	switch kind {
	case NCCL:
		return nccl.Config(), nil
	case RCCL:
		return rccl.Config(), nil
	case HCCL:
		return hccl.Config(), nil
	case MSCCL:
		return msccl.Config(), nil
	case OneCCL:
		return oneccl.Config(), nil
	case BackendKind(legacy):
		return nccl.VersionConfig(nccl.LegacyVersion), nil
	default:
		return ccl.Config{}, fmt.Errorf("xccl: no config for backend %q", kind)
	}
}

// cclComm returns (creating and caching on first use) this rank's CCL
// communicator mirroring the MPI communicator — the communicator
// maintenance box of Fig 2. Creation mirrors the real flow where the MPI
// communicator bootstraps the CCL unique id: every rank rendezvouses on
// the Runtime.pending entry, the last distinct rank performs the creation
// (ncclCommInitAll), and all waiters observe the same communicators or
// the same error. A failed creation is not cached — the next collective
// wave rendezvouses again, so a transient comm-init fault heals.
func (x *Comm) cclComm() (*ccl.Comm, error) {
	rt := x.rt
	key := fmt.Sprintf("%d/%s", x.mpi.ContextID(), rt.kind)
	if comms, ok := rt.cache[key]; ok {
		return comms[x.Rank()], nil
	}
	ci, ok := rt.pending[key]
	if !ok {
		ci = &commInit{
			seen:  make(map[int]bool),
			ready: sim.NewEvent(x.mpi.Proc().Kernel()),
		}
		rt.pending[key] = ci
	}
	// Count distinct ranks, not arrivals: concurrent nonblocking
	// collectives may bring the same rank here twice before creation.
	if !ci.seen[x.Rank()] {
		ci.seen[x.Rank()] = true
		if len(ci.seen) == x.Size() {
			devs := make([]*device.Device, x.Size())
			for r := range devs {
				devs[r] = x.mpi.RankDevice(r)
			}
			comms, err := newBackendComms(rt.kind, x.mpi.Job().Fabric(), devs)
			if err != nil {
				ci.err = err
			} else {
				// Backend-level instrumentation (launches, group fusion,
				// transfer bytes) reports into the same registry as the
				// dispatch metrics.
				if rt.opts.Metrics != nil && len(comms) > 0 {
					comms[0].SetMetrics(rt.opts.Metrics)
				}
				ci.comms = comms
				rt.cache[key] = comms
			}
			delete(rt.pending, key)
			ci.ready.Fire()
		}
	}
	// A fail-stopped peer never reaches the rendezvous, so with the
	// watchdog armed the wait is bounded like any other collective.
	if wd := rt.watchdogTimeout(); wd > 0 {
		if !ci.ready.WaitTimeout(x.mpi.Proc(), wd) {
			return nil, &ccl.Error{Backend: string(rt.kind), Result: ccl.ErrRankDead,
				Op: "comminit", Rank: -1,
				Msg: fmt.Sprintf("watchdog fired after %v waiting for peers at communicator creation", wd)}
		}
	} else {
		ci.ready.Wait(x.mpi.Proc())
	}
	if ci.err != nil {
		return nil, ci.err
	}
	comms := ci.comms
	if comms[0].RankIDs() == nil {
		// Fault rules and failure verdicts name world ranks; a shrunk
		// communicator's CCL handles are locally renumbered, so give them
		// the world identities to probe and report with.
		ids := make([]int, x.Size())
		for r := range ids {
			ids[r] = x.mpi.WorldRankOf(r)
		}
		comms[0].SetRankIDs(ids)
	}
	return comms[x.Rank()], nil
}

// decision is the outcome of the dispatch logic for one call.
type decision struct {
	useCCL bool
	dt     ccl.Datatype
	op     ccl.RedOp
	// algo/chunk carry the tuned band's forced CCL schedule family
	// (ccl.AlgoAuto = the backend's built-in split) and hierarchical
	// pipeline chunk.
	algo  ccl.Algorithm
	chunk int64
	// plan, when non-empty, routes a synthesized collective through the
	// compiled executor with this strategy key ("auto" = cost-model
	// search). Empty keeps the group send-recv loop.
	plan string
}

// compilableOps are the synthesized collectives the compiler lowers into
// primitive DAGs (the ops that today bypass the CCL built-ins entirely).
var compilableOps = map[OpKind]bool{
	OpAlltoall: true, OpAlltoallv: true, OpGather: true, OpScatter: true,
}

// applyPlan folds a tuned band's v3 plan key into the decision. Compilable
// ops carry the key straight to the CCL compiled executor; for the built-in
// collectives a "native:" key is the search's ranking of the existing
// schedule families, so it maps onto the algorithm selector (ParseTable
// already validated the key against the op).
func (d *decision) applyPlan(op OpKind, plan string) {
	if plan == "" {
		return
	}
	if compilableOps[op] {
		d.plan = plan
		return
	}
	switch {
	case strings.HasPrefix(plan, "native:hier"):
		d.algo = ccl.AlgoHierarchical
	case strings.HasPrefix(plan, "native:flat"):
		// Flat bcast runs the backend's tree schedule (there is no flat
		// ring bcast); everything else flat is the ring family.
		if op == OpBcast {
			d.algo = ccl.AlgoTree
		} else {
			d.algo = ccl.AlgoFlatRing
		}
	}
}

// mapAlgo translates a tuning-table algorithm name into the CCL selector.
func mapAlgo(a Algo) ccl.Algorithm {
	switch a {
	case AlgoFlatRing:
		return ccl.AlgoFlatRing
	case AlgoTree:
		return ccl.AlgoTree
	case AlgoHierarchical:
		return ccl.AlgoHierarchical
	}
	return ccl.AlgoAuto
}

// decide runs the §3.1–§3.4 checks: device-buffer identify, datatype and
// reduction support, then the mode policy (hybrid tuning table lookup).
// bufs are the user buffers that must live on the accelerator for a CCL
// dispatch.
func (x *Comm) decide(op OpKind, bytes int64, dt mpi.Datatype, rop *mpi.Op, bufs ...*device.Buffer) decision {
	rt := x.rt
	if rt.opts.Mode == PureMPI || rt.kind == "" || rt.kind == NoCCL {
		return decision{}
	}
	cfg, err := backendConfig(rt.kind)
	if err != nil {
		return decision{}
	}
	if !cfg.SupportsKind(x.Device().Kind) {
		rt.stats.Fallbacks.Device++
		rt.countFallback(op, "device")
		return decision{}
	}
	for _, b := range bufs {
		if b != nil && !b.OnDevice() {
			rt.stats.Fallbacks.HostBuffer++
			rt.countFallback(op, "host_buffer")
			return decision{}
		}
	}
	cdt, ok := mapDatatype(dt)
	if !ok || !cfg.Datatypes[cdt] {
		rt.stats.Fallbacks.Datatype++
		rt.countFallback(op, "datatype")
		return decision{}
	}
	var cop ccl.RedOp
	if rop != nil {
		cop, ok = mapOp(*rop)
		if !ok || !cfg.Ops[cop] {
			rt.stats.Fallbacks.Op++
			rt.countFallback(op, "op")
			return decision{}
		}
	}
	d := decision{useCCL: true, dt: cdt, op: cop}
	if rt.opts.Mode == Hybrid {
		th, hit := rt.table.Choice(op, bytes)
		rt.countTuning(op, th.Path, hit)
		if th.Path == PathMPI {
			return decision{}
		}
		d.algo, d.chunk = mapAlgo(th.Algo), th.ChunkBytes
		if th.Algo != AlgoAuto {
			rt.countAlgoChoice(op, th.Algo)
		}
		d.applyPlan(op, th.Plan)
	}
	if d.plan == "" && rt.opts.Compile && compilableOps[op] {
		d.plan = "auto"
	}
	return d
}

// runCCL executes fn against the cached CCL communicator and this rank's
// stream, blocking until the enqueued work completes (MPI semantics). A
// CCL error falls back to nothing here — the caller handles it (and may
// retry: a failed group call is aborted so the retry starts clean).
func (x *Comm) runCCL(fn func(cc *ccl.Comm, s *device.Stream) error) error {
	cc, err := x.cclComm()
	if err != nil {
		return err
	}
	x.syncEnv(cc)
	s := x.rt.stream(x.mpi.WorldRank(), x.Device())
	if err := fn(cc, s); err != nil {
		cc.GroupAbort()
		return err
	}
	s.Synchronize(x.mpi.Proc())
	// A watchdog abort lets the stream task complete, so synchronization
	// returns normally and the verdict is only visible here.
	if err := cc.TakeAsyncErr(); err != nil {
		return err
	}
	return nil
}
