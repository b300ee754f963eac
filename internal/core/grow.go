package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/trace"
)

// Spare-rank regrowth: the inverse of the ULFM-style Shrink. A job is
// launched with more ranks than the application needs; the extras park in
// the runtime's spare pool (WaitAsSpare) until the survivors of a crash
// call Grow, which adopts spares via a join rendezvous and hands every
// participant a communicator at the restored width:
//
//	detect -> Revoke -> Shrink -> Grow (adopt spares) -> continue at full width
//
// Spares restore their replica state from the application's checkpoint
// (the restore callback) before joining, so the first collective on the
// grown communicator sees peers with consistent state.

// ErrNoSpares reports a Grow attempted with an empty spare pool: the
// communicator keeps its current (shrunk) width.
var ErrNoSpares = errors.New("xccl: no spare ranks available")

// spareSlot is one parked spare rank awaiting adoption.
type spareSlot struct {
	worldRank int
	join      *sim.Event
	members   []int // agreed member world ranks, set on adoption
	released  bool  // the job drained without adopting this spare
}

// growState coordinates one Grow across the survivors of a shrunk
// communicator, mirroring shrinkState: the first arrival fixes the adopted
// set, votes flow to the coordinator, and the last arrival invites the
// spares and broadcasts the decision.
type growState struct {
	members []int // agreed member world ranks, ascending
	adopted []int // spare world ranks being adopted, ascending
	arrived int
	ready   *sim.Event
	err     error
}

// WaitAsSpare parks this rank in the runtime's spare pool until a Grow
// adopts it or the job drains. Call it on the world communicator before
// any collective; ranks above the application's active width do this
// first thing. On adoption the restore callback (when non-nil) runs
// before the join completes — the place to load replica state from a
// checkpoint, paying its virtual-time cost while the survivors wait at
// the join rendezvous — and the returned communicator contains the
// survivors plus the adopted spares at their agreed world-rank order.
// The bool is false when the job finished without needing this spare.
func (x *Comm) WaitAsSpare(restore func()) (*Comm, bool) {
	rt := x.rt
	p := x.mpi.Proc()
	wr := x.mpi.WorldRank()
	slot := &spareSlot{worldRank: wr, join: sim.NewEvent(p.Kernel())}
	rt.sparePool[wr] = slot
	slot.join.Wait(p)
	if slot.released {
		return nil, false
	}
	if restore != nil {
		restore()
	}
	world := rt.worldMPI[wr]
	if world == nil {
		world = x.mpi
	}
	// World-communicator local ranks are world ranks, so the agreed member
	// list doubles as the Subset argument.
	return rt.Wrap(world.Subset(slot.members)), true
}

// Grow rebuilds the communicator at a larger width by adopting up to need
// ranks from the spare pool (fewer when the pool is short — inspect the
// returned world ranks). Every member of the (typically just-shrunk)
// communicator must call it, like Shrink; the adopted spares participate
// from their WaitAsSpare park. The returned communicator orders members
// by world rank and builds its CCL communicator lazily on first use.
// Grow requires ranks launched through Runtime.Run (the world handles it
// registers are how survivors and spares meet); ErrNoSpares means the
// pool was empty and the caller keeps its current width.
func (x *Comm) Grow(need int) (*Comm, []int, error) {
	if x.dead {
		return nil, nil, x.failure
	}
	rt := x.rt
	if need <= 0 {
		return x, nil, nil
	}
	p := x.mpi.Proc()
	world := rt.worldMPI[x.mpi.WorldRank()]
	if world == nil {
		return nil, nil, fmt.Errorf("xccl: Grow requires ranks launched through Runtime.Run")
	}
	ctx := x.mpi.ContextID()
	gs, ok := rt.grows[ctx]
	if !ok {
		// First arrival fixes the adopted set and the member list; later
		// pool changes would be a different epoch.
		gs = &growState{ready: sim.NewEvent(p.Kernel())}
		avail := rt.availableSpares()
		if len(avail) == 0 {
			gs.err = ErrNoSpares
		} else {
			if need > len(avail) {
				need = len(avail)
			}
			gs.adopted = avail[:need]
			members := make([]int, 0, x.Size()+need)
			for r := 0; r < x.Size(); r++ {
				members = append(members, x.mpi.WorldRankOf(r))
			}
			members = append(members, gs.adopted...)
			sort.Ints(members)
			gs.members = members
		}
		rt.grows[ctx] = gs
	}
	const coord = 0
	fab := x.mpi.Job().Fabric()
	if x.Rank() != coord {
		// Vote: one control message to the coordinator.
		_, _ = fab.TryControlMsg(p, x.Device(), x.mpi.RankDevice(coord))
	}
	gs.arrived++
	if gs.arrived < x.Size() {
		gs.ready.Wait(p)
	} else {
		// Last arrival closes the agreement: invite each adopted spare,
		// broadcast the decision to the other survivors, and publish.
		if gs.err == nil {
			for _, spare := range gs.adopted {
				slot := rt.sparePool[spare]
				if dev := rt.worldMPI[spare]; dev != nil {
					_, _ = fab.TryControlMsg(p, x.mpi.RankDevice(coord), dev.Device())
				}
				slot.members = gs.members
				delete(rt.sparePool, spare)
				// A rejoining fenced rank unfences itself before parking;
				// clearing here too keeps the invariant (no fenced member
				// in a live communicator) independent of the join path.
				rt.unfence(spare)
				slot.join.Fire()
			}
			for r := 0; r < x.Size(); r++ {
				if r == coord {
					continue
				}
				_, _ = fab.TryControlMsg(p, x.mpi.RankDevice(coord), x.mpi.RankDevice(r))
			}
			// The grown member set supersedes this context: collectives
			// still dispatched on the old handle would run at the shrunk
			// width against peers that moved on, so they are rejected with
			// ErrStaleEpoch (stale-epoch fencing of failure model v3).
			rt.staleCtx[ctx] = true
			rt.noteGrow(len(gs.members), p.Now())
		}
		delete(rt.grows, ctx)
		gs.ready.Fire()
	}
	if gs.err != nil {
		return nil, nil, gs.err
	}
	return rt.Wrap(world.Subset(gs.members)), gs.adopted, nil
}

// availableSpares lists the parked, unadopted spare world ranks ascending.
func (rt *Runtime) availableSpares() []int {
	out := make([]int, 0, len(rt.sparePool))
	for wr := range rt.sparePool {
		out = append(out, wr)
	}
	sort.Ints(out)
	return out
}

// releaseSpares wakes every parked spare without adoption (the job is
// draining). Iterates in rank order so the wakeups are deterministic.
func (rt *Runtime) releaseSpares() {
	for _, wr := range rt.availableSpares() {
		slot := rt.sparePool[wr]
		slot.released = true
		delete(rt.sparePool, wr)
		slot.join.Fire()
	}
}

// noteGrow publishes one completed grow (recorded once, by the rank that
// closed the agreement; rank -1: the event belongs to the runtime).
func (rt *Runtime) noteGrow(to int, now time.Duration) {
	rt.stats.Grows++
	rt.bumpEpoch()
	rt.opts.Metrics.Counter("xccl_grow_total",
		"Completed spare-rank communicator grows.",
		metrics.Labels{"backend": string(rt.kind)}).Inc()
	rec := trace.Record{
		Op: "grow", Backend: string(rt.kind), Rank: -1,
		Event: "comm_grow", Start: now, Bytes: int64(to),
	}
	rt.emit(rec)
}
