package core

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/trace"
)

// ULFM-style fail-stop recovery (User Level Failure Mitigation, the MPI
// forum's fault-tolerance proposal): the runtime detects a dead rank via
// the collective watchdog (Resilience.WatchdogTimeout), the application
// revokes the broken communicator, and the survivors agree on the member
// set and shrink to a working communicator:
//
//	detect (Failure != nil) -> Revoke -> Shrink -> continue on survivors
//
// A rank that observes its own crash (Dead) exits instead of shrinking.

// ErrCommRevoked reports a collective attempted on a revoked communicator:
// the operation did nothing, and the caller must Shrink (or abandon the
// communicator) to make progress.
var ErrCommRevoked = errors.New("xccl: communicator revoked")

// Failure returns the first fail-stop verdict this rank observed on the
// communicator: an ErrRankDead-wrapping CCL error from the watchdog or a
// crash probe, or ErrCommRevoked once the communicator is revoked. nil
// means every collective so far completed. Check it after each collective
// when running with the watchdog armed — the collectives themselves do not
// return errors (MPI semantics).
func (x *Comm) Failure() error { return x.failure }

// Dead reports whether this rank itself fail-stopped: its own CCL call
// failed with its own rank named. A dead rank must exit — it is the rank
// the survivors are agreeing to exclude.
func (x *Comm) Dead() bool { return x.dead }

// noteRankFailure records a fail-stop verdict on this rank's handle. Every
// verdict — the dead rank's own detection, a survivor's watchdog verdict,
// or a heartbeat suspicion — emits one "rank_dead" trace event (the Record
// names the observing rank; earlier PRs split this into rank_dead /
// rank_dead_detected, an undocumented drift this unifies). Only the dead
// rank's own detection increments the failure counters, so they stay exact
// rather than per-witness. Only the first verdict per handle is recorded —
// a caller that keeps dispatching on the broken communicator (legal until
// it revokes) fails again on every op, and those repeats must not inflate
// the counters or the trace.
func (x *Comm) noteRankFailure(op OpKind, err error) {
	var ce *ccl.Error
	if errors.As(err, &ce) && ce.Rank == x.mpi.WorldRank() {
		x.dead = true
	}
	if x.failure != nil {
		return
	}
	x.failure = err
	rt := x.rt
	if x.dead {
		// Self-detection: exactly one rank observes each crash as its own,
		// so the failure counter is exact, not per-witness.
		rt.stats.RankFailures++
		rt.opts.Metrics.Counter("xccl_rank_failures_total",
			"Fail-stopped ranks, counted once per crash on the dead rank's own detection.",
			metrics.Labels{"backend": string(rt.kind)}).Inc()
	}
	rec := trace.Record{
		Op: string(op), Backend: string(rt.kind), Rank: x.Rank(),
		Event: "rank_dead", Start: x.mpi.Proc().Now(),
	}
	rt.emit(rec)
}

// Revoke marks the communicator revoked (MPI_Comm_revoke): every rank's
// subsequent collectives on it no-op with Failure() == ErrCommRevoked, so
// no survivor can block on a collective the dead rank will never join.
// Any rank may revoke; duplicates are no-ops. The revoking rank pays one
// control message per surviving peer (the revoke flood).
func (x *Comm) Revoke() {
	rt := x.rt
	ctx := x.mpi.ContextID()
	if rt.revoked[ctx] {
		return
	}
	rt.revoked[ctx] = true
	fab := x.mpi.Job().Fabric()
	fs := fab.FailStop()
	now := x.mpi.Proc().Now()
	for r := 0; r < x.Size(); r++ {
		if r == x.Rank() || (fs != nil && fs.RankDead(x.mpi.WorldRankOf(r), now)) {
			continue
		}
		// Routing failures are ignored: revocation is best-effort
		// notification, and the shared runtime state already carries it.
		_, _ = fab.TryControlMsg(x.mpi.Proc(), x.Device(), x.mpi.RankDevice(r))
	}
	rec := trace.Record{
		Op: "revoke", Backend: string(rt.kind), Rank: x.Rank(),
		Event: "comm_revoked", Start: now,
	}
	rt.emit(rec)
}

// shrinkState coordinates one Shrink across the survivors of a revoked
// communicator: every survivor contributes its arrival, the last one
// performs the agreement broadcast, and all leave with the same member set.
type shrinkState struct {
	survivors []int // agreed surviving local ranks, ascending
	cut       int   // alive ranks excluded as unreachable (partition episode)
	arrived   int
	ready     *sim.Event
}

// Shrink builds the survivor communicator (MPI_Comm_shrink): the ranks
// still alive agree on the member set — everyone the fail-stop detector
// has not declared dead — and derive a fresh communicator containing only
// them, with a fresh CCL communicator built lazily on first use. Every
// survivor must call it (dead ranks, by definition, cannot); a Dead rank
// gets its own failure back. The returned handle carries the caller's new
// rank and size; its CCL communicator probes fault rules by world rank,
// so the survivors' renumbering does not re-trigger the old crash rule.
//
// The agreement is modeled as one control-message round: each survivor
// votes to the lowest-ranked survivor (the coordinator), which broadcasts
// the decided member set back — the simulation's stand-in for ULFM's
// agreement protocol, charged at fabric control-message cost.
func (x *Comm) Shrink() (*Comm, error) {
	if x.dead {
		return nil, x.failure
	}
	rt := x.rt
	ctx := x.mpi.ContextID()
	if pt := rt.partitioner(); pt != nil {
		// Quorum gate (failure model v3): this rank may only shrink with
		// the peers it can actually reach — alive AND not severed from it.
		// Anything short of a strict majority of the pre-failure size
		// would fork the membership (the far side would shrink too), so
		// the minority — and both halves of an exact 50/50 split — fences
		// itself instead of entering the rendezvous. The gate never fires
		// without a partition oracle, keeping the crash-only path intact.
		gnow := x.mpi.Proc().Now()
		gfs := x.mpi.Job().Fabric().FailStop()
		reachable := 0
		for r := 0; r < x.Size(); r++ {
			if gfs != nil && gfs.RankDead(x.mpi.WorldRankOf(r), gnow) {
				continue
			}
			if r != x.Rank() && rt.severedPair(x.mpi, x.Rank(), r, gnow) {
				continue
			}
			reachable++
		}
		if reachable*2 <= x.Size() {
			rt.fence(x, gnow)
			return nil, ErrNoQuorum
		}
	}
	if !rt.revoked[ctx] {
		// Shrinking implies revocation: late ranks that skipped the
		// explicit Revoke must still stop dispatching on the old handle.
		x.Revoke()
	}
	p := x.mpi.Proc()
	now := p.Now()
	fs := x.mpi.Job().Fabric().FailStop()
	ss, ok := rt.shrinks[ctx]
	if !ok {
		// First arrival computes the survivor set. Later deaths would be
		// a different epoch: the set is fixed per shrink so every
		// participant waits for the same peers. Under a partition the set
		// also excludes ranks severed from this arrival — the cut is a
		// clean bipartition, so every majority rank computes the same
		// set, and the fenced minority never reaches this point.
		pt := rt.partitioner()
		var survivors []int
		cut := 0
		for r := 0; r < x.Size(); r++ {
			if fs != nil && fs.RankDead(x.mpi.WorldRankOf(r), now) {
				continue
			}
			if pt != nil && r != x.Rank() && rt.severedPair(x.mpi, x.Rank(), r, now) {
				cut++
				continue
			}
			survivors = append(survivors, r)
		}
		ss = &shrinkState{survivors: survivors, cut: cut, ready: sim.NewEvent(p.Kernel())}
		rt.shrinks[ctx] = ss
	}
	coord := ss.survivors[0]
	if x.Rank() != coord {
		// Vote: one control message to the coordinator.
		_, _ = x.mpi.Job().Fabric().TryControlMsg(p, x.Device(), x.mpi.RankDevice(coord))
	}
	ss.arrived++
	if ss.arrived < len(ss.survivors) {
		ss.ready.Wait(p)
	} else {
		// Last arrival closes the agreement: broadcast the decision and
		// retire the old communicator's cached CCL state.
		for _, r := range ss.survivors {
			if r == x.Rank() {
				continue
			}
			_, _ = x.mpi.Job().Fabric().TryControlMsg(p, x.mpi.RankDevice(coord), x.mpi.RankDevice(r))
		}
		delete(rt.shrinks, ctx)
		delete(rt.cache, fmt.Sprintf("%d/%s", ctx, rt.kind))
		rt.noteShrink(x, len(ss.survivors), ss.cut, p.Now())
		ss.ready.Fire()
	}
	sub := x.mpi.Subset(ss.survivors)
	return rt.Wrap(sub), nil
}

// noteShrink publishes one completed shrink (recorded once, by the rank
// that closed the agreement; rank -1: the event belongs to the runtime).
// cut is how many alive-but-unreachable ranks the survivor set excluded: a
// positive cut is one handled partition episode, and every shrink bumps
// the membership epoch.
func (rt *Runtime) noteShrink(x *Comm, to, cut int, now time.Duration) {
	rt.stats.Shrinks++
	rt.bumpEpoch()
	rt.opts.Metrics.Counter("xccl_shrink_total",
		"Completed ULFM-style communicator shrinks.",
		metrics.Labels{"backend": string(rt.kind)}).Inc()
	if cut > 0 {
		rt.stats.Partitions++
		rt.opts.Metrics.Counter("xccl_partitions_total",
			"Partition episodes handled: quorum shrinks that excluded alive-but-unreachable ranks.",
			metrics.Labels{"backend": string(rt.kind)}).Inc()
	}
	rec := trace.Record{
		Op: "shrink", Backend: string(rt.kind), Rank: -1,
		Event: "comm_shrink", Start: now, Bytes: int64(to),
	}
	rt.emit(rec)
}
