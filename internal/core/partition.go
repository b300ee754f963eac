package core

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/trace"
)

// Epoch-based quorum membership (failure model v3). Crashes (v1, PR 4) and
// heartbeat suspicion with spare regrowth (v2, PR 7) both assume every
// survivor can reach every other; a network partition breaks that and would
// either deadlock both sides or let each half Shrink into its own divergent
// world (split brain). This layer makes membership changes safe under
// partitions:
//
//   - The communicator carries a membership epoch, bumped by every Shrink
//     and Grow. Handles whose context a Grow superseded reject further
//     collectives with ErrStaleEpoch, so operations from the two sides of
//     a healed cut can never interleave on one member set.
//   - Shrink takes a quorum vote: each caller computes its reachable
//     survivor view (alive AND not severed from it), and only a strict
//     majority of the pre-failure size may shrink. The minority — and both
//     halves of an exact 50/50 split, the price of strict quorum — fences
//     itself instead: Shrink returns ErrNoQuorum, the rank is marked
//     fenced, and every later collective on any of its handles fails fast
//     with ErrFenced in bounded virtual time.
//   - After the cut heals, fenced ranks Rejoin: wait out the partition (a
//     single deterministic sleep on the oracle's heal time), unfence, and
//     park in the spare pool, re-entering through the same Grow rendezvous
//     a cold spare uses — checkpoint resync included via the restore
//     callback.
//
// Detection is oracle-driven: the fault plan's partition rules are pure
// time-window functions (fabric.Partitioner), so every rank derives the
// same verdict at the same virtual time — the property the partition
// determinism tests pin. The heartbeat detector
// observes cuts too ("partitioned" suspicion outcome) but never converts
// them into death verdicts: a severed peer is alive.

// ErrNoQuorum reports a Shrink attempted from the minority side of a
// network partition: fewer than a strict majority of the communicator's
// ranks are reachable, so shrinking would fork the membership. The rank is
// now fenced; after the cut heals it may Rejoin.
var ErrNoQuorum = errors.New("xccl: no quorum: this rank is on the minority side of a network partition")

// ErrFenced reports a collective attempted by a fenced rank (the minority
// side of a partition after a failed quorum vote). The operation did
// nothing; the rank must Rejoin after the partition heals.
var ErrFenced = errors.New("xccl: rank is fenced (minority side of a network partition)")

// ErrStaleEpoch reports a collective attempted on a communicator whose
// membership epoch has been superseded by a Grow: the handle describes a
// member set that no longer exists. Use the communicator returned by
// Grow/Rejoin instead.
var ErrStaleEpoch = errors.New("xccl: stale membership epoch (communicator superseded by a Grow)")

// partitioner returns the fault plan's partition oracle, or nil when the
// attached agent does not model network partitions.
func (rt *Runtime) partitioner() fabric.Partitioner {
	return rt.job.Fabric().Partitioner()
}

// HasPartitions reports whether the job's fault plan carries any armed
// partition rule. Partition-aware training loops (dl.TrainElastic) use it
// to decide whether to poll for regrowth after a quorum shrink.
func (rt *Runtime) HasPartitions() bool {
	pt := rt.partitioner()
	return pt != nil && pt.HasPartitions()
}

// Epoch reports the current membership epoch: the number of completed
// membership changes (Shrinks and Grows) since the job started.
func (rt *Runtime) Epoch() int { return rt.stats.Epoch }

// Fenced returns a copy of the fenced-rank set: world rank -> virtual time
// of fencing. Nil when no rank is fenced.
func (rt *Runtime) Fenced() map[int]time.Duration {
	if len(rt.fenced) == 0 {
		return nil
	}
	out := make(map[int]time.Duration, len(rt.fenced))
	for r, t := range rt.fenced {
		out[r] = t
	}
	return out
}

// bumpEpoch advances the membership epoch and publishes the gauge. Called
// once per completed membership change, by the rank closing the agreement.
func (rt *Runtime) bumpEpoch() {
	rt.stats.Epoch++
	rt.opts.Metrics.Gauge("xccl_epoch",
		"Current membership epoch: completed membership changes (shrinks and grows).",
		metrics.Labels{"backend": string(rt.kind)}).Set(float64(rt.stats.Epoch))
}

// fence marks this rank fenced (once), counting it and emitting the trace
// event. A fenced rank's collectives fail fast with ErrFenced until Rejoin.
func (rt *Runtime) fence(x *Comm, now time.Duration) {
	wr := x.mpi.WorldRank()
	if _, ok := rt.fenced[wr]; ok {
		return
	}
	rt.fenced[wr] = now
	rt.stats.FencedRanks++
	rt.opts.Metrics.Counter("xccl_fenced_ranks_total",
		"Ranks that fenced themselves on the minority side of a network partition.",
		metrics.Labels{"backend": string(rt.kind)}).Inc()
	rec := trace.Record{
		Op: "partition", Backend: string(rt.kind), Rank: x.Rank(),
		Event: "rank_fenced", Start: now, Bytes: int64(wr),
	}
	rt.emit(rec)
}

// unfence clears a rank's fence (it is rejoining through the spare pool).
func (rt *Runtime) unfence(wr int) { delete(rt.fenced, wr) }

// severedPair reports whether the oracle severs local ranks a and b of c at
// now — by their devices' nodes (node-scoped cuts, the ones the fabric also
// enforces) or by their world ranks (rank-scoped membership cuts).
func (rt *Runtime) severedPair(c *mpi.Comm, a, b int, now time.Duration) bool {
	pt := rt.partitioner()
	if pt == nil {
		return false
	}
	da, db := c.RankDevice(a), c.RankDevice(b)
	if da != nil && db != nil && pt.Severed(da.Node, db.Node, now) {
		return true
	}
	return pt.RanksSevered(c.WorldRankOf(a), c.WorldRankOf(b), now)
}

// unreachableErr fast-fails a dispatch when a member of this communicator
// is on the far side of an active cut: the collective could only end in a
// watchdog timeout (or a mid-schedule abort), so surface the ErrUnreachable
// verdict now — the partition analogue of the heartbeat fast-fail.
func (x *Comm) unreachableErr(op OpKind) error {
	pt := x.rt.partitioner()
	if pt == nil {
		return nil
	}
	now := x.mpi.Proc().Now()
	if !pt.PartitionedNow(now) {
		return nil
	}
	self := x.Rank()
	for r := 0; r < x.Size(); r++ {
		if r == self {
			continue
		}
		if x.rt.severedPair(x.mpi, self, r, now) {
			wr := x.mpi.WorldRankOf(r)
			return &ccl.Error{Backend: string(x.rt.kind), Result: ccl.ErrUnreachable,
				Op: string(op), Rank: wr,
				Msg: fmt.Sprintf("rank %d unreachable across a network partition", wr)}
		}
	}
	return nil
}

// notePartition records an unreachable-peer verdict on this rank's handle
// (first verdict wins, like noteRankFailure). The severed peer is alive, so
// no failure counter moves here — partition episodes are counted once, by
// the quorum Shrink that excludes the unreachable ranks.
func (x *Comm) notePartition(op OpKind, err error) {
	if x.failure != nil {
		return
	}
	x.failure = err
	rt := x.rt
	rec := trace.Record{
		Op: string(op), Backend: string(rt.kind), Rank: x.Rank(),
		Event: "rank_unreachable", Start: x.mpi.Proc().Now(),
	}
	rt.emit(rec)
}

// Rejoin re-enters the job after this rank fenced itself: it waits out the
// active partition (one deterministic sleep to the oracle's heal time),
// unfences, and parks in the spare pool, where the majority's next Grow
// adopts it — the same join rendezvous a cold spare uses, so the returned
// communicator's members all hold consistent replica state once restore
// (the checkpoint reload) has run. The bool is false when the partition
// never heals or the job drains first: the caller should return, letting
// the job finish at its shrunken width.
func (x *Comm) Rejoin(restore func()) (*Comm, bool) {
	rt := x.rt
	p := x.mpi.Proc()
	if pt := rt.partitioner(); pt != nil {
		for {
			until, heals := pt.PartitionedUntil(p.Now())
			if !heals {
				return nil, false
			}
			if until <= p.Now() {
				break
			}
			p.Sleep(until - p.Now())
		}
	}
	rt.unfence(x.mpi.WorldRank())
	return x.WaitAsSpare(restore)
}
