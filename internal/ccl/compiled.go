package ccl

// Unified executor for compiled collective plans (internal/ccl/comp).
// One code path runs both the compiler's output and converted MSCCL
// schedules: a comp.Plan is a list of phases of concrete moves, each rank
// executes its slice of every phase (sender processes per destination,
// inline receives, local copies), and the credit-managed pipes of the
// built-in algorithms provide the flow control. Two transports exist and a
// plan must use one consistently per rank pair (a pair pipe's slot size is
// fixed at first use): direct moves write straight into the receiver's
// buffer (compiled Alltoall/Scatter/Gather plans are all-direct), staged
// moves ship through the pipes — read in place from the sender, see put —
// and may reduce on arrival (converted MSCCL schedules are all-staged).
//
// Deadlock safety: every rank always drains its full program — an aborted
// transfer (network partition) fails fast, skips the copy, and still
// signals its pipe, so receivers never strand. Fences (phased plans) are
// reached by every rank unconditionally; with the watchdog armed a
// crashed peer bounds the wait and the barrier's all-or-nobody release
// makes the timeout verdict uniform across survivors.

import (
	"fmt"

	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// compTopo extracts (once) the cost-model topology from the fabric's
// system description and the backend personality.
func (co *core) compTopo() *comp.Topo {
	if co.compTopoCache != nil {
		return co.compTopoCache
	}
	sys := co.fab.System()
	dense := map[int]int{}
	nodeOf := make([]int, co.n)
	for r, d := range co.devs {
		id, ok := dense[d.Node]
		if !ok {
			id = len(dense)
			dense[d.Node] = id
		}
		nodeOf[r] = id
	}
	pen := co.cfg.InterNodePenalty
	if pen < 1 {
		pen = 1
	}
	co.compTopoCache = &comp.Topo{
		NodeOf: nodeOf, Nodes: len(dense),
		IntraAlpha: sys.Intra.Alpha.Seconds(), IntraChanBW: sys.Intra.ChannelBW,
		IntraDirCh: sys.Intra.DirChannels, IntraTotalCh: sys.Intra.TotalChannels,
		InterAlpha: sys.Inter.Alpha.Seconds(), InterChanBW: sys.Inter.ChannelBW,
		InterDirCh: sys.Inter.DirChannels, InterTotalCh: sys.Inter.TotalChannels,
		Launch: co.cfg.Launch.Seconds(), Step: co.cfg.StepCost.Seconds(),
		InterPenalty: pen, Channels: co.cfg.Channels,
	}
	return co.compTopoCache
}

type compPlanKey struct {
	op   string
	blk  int64
	root int
	key  string
}

// compiledPlan returns (compiling and caching on first use) the plan for
// one call shape: an explicit strategy key from the tuning table, or a
// cost-model search when the key is empty/"auto".
func (co *core) compiledPlan(op string, blk int64, root int, key string) (*comp.Plan, error) {
	if co.compPlans == nil {
		co.compPlans = map[compPlanKey]*comp.Plan{}
	}
	k := compPlanKey{op, blk, root, key}
	if p, ok := co.compPlans[k]; ok {
		return p, nil
	}
	t := co.compTopo()
	sh := comp.Shape{BlockBytes: blk, Root: root}
	var (
		p   *comp.Plan
		err error
	)
	if key == "" || key == "auto" {
		p, err = comp.Search(op, t, sh)
	} else if err = comp.ValidKey(op, key); err == nil {
		p, err = comp.CompileKey(op, t, sh, key)
	}
	if err != nil {
		return nil, err
	}
	co.compPlans[k] = p
	return p, nil
}

// planSlot is the staged-pipe slot size a plan needs: the largest staged
// move's source chunk (1 when the plan is all-direct — the slot is unused
// then, but pipes want a positive capacity).
func planSlot(p *comp.Plan) int64 {
	var max int64 = 1
	for pi := range p.Phases {
		for i := range p.Phases[pi].Moves {
			m := &p.Phases[pi].Moves[i]
			if m.Staged && m.SrcLen() > max {
				max = m.SrcLen()
			}
		}
	}
	return max
}

// fence synchronizes every rank between phases of a fenced plan, reusing
// the op's cyclic start barrier. Every rank reaches every fence (programs
// always drain), so the barrier's parties match. With the watchdog armed a
// hung peer bounds the wait; the barrier releases nobody unless all
// arrive, so every survivor times out together and abandons the remaining
// phases uniformly.
func (rc *runCtx) fence(op string) bool {
	if !rc.startWait() {
		if rc.st.abortErr == nil {
			rc.st.abortErr = rc.co.deadVerdict(op, rc.p.Now())
		}
		return false
	}
	return true
}

// bufAt resolves a move endpoint to a view of the owning rank's buffer.
func (rc *runCtx) bufAt(role comp.BufRole, rank int, off, n int64) *device.Buffer {
	st := rc.st
	switch role {
	case comp.SendBuf:
		return st.args[rank].send.Slice(off, n)
	case comp.RecvBuf:
		return st.args[rank].recv.Slice(off, n)
	default:
		return st.scratch[rank].Slice(off, n)
	}
}

// runPlan executes this rank's slice of a compiled plan. name builds the
// sender-process label (converted MSCCL schedules keep the historical
// "custom/..." names; compiled plans use "comp/..."). slot is the staged
// pipe slot size (planSlot).
func (rc *runCtx) runPlan(plan *comp.Plan, dt Datatype, op RedOp, slot int64,
	name func(from, to, lane int) string) {
	co, st := rc.co, rc.st
	if plan.Scratch != nil && st.scratch == nil {
		// First rank to arrive stages scratch for everyone (cooperative
		// scheduling; every rank's moves resolve buffers lazily).
		st.scratch = make([]*device.Buffer, co.n)
		for r, sz := range plan.Scratch {
			if sz > 0 {
				st.scratch[r] = co.devs[r].MustMallocScratch(sz)
			}
		}
	}
	rp := plan.Rank(rc.rank)
	k := rc.p.Kernel()
	esz := int64(dt.Size())
	for pi := range rp.Phases {
		if plan.Fenced && pi > 0 {
			if !rc.fence(plan.Op) {
				return
			}
		}
		ph := &rp.Phases[pi]
		counter := sim.NewCounter(k, len(ph.Dests))
		for _, d := range ph.Dests {
			d := d
			k.Spawn(name(rc.rank, d.To, d.Lane), func(p *sim.Proc) {
				sub := &runCtx{co: co, st: st, rank: rc.rank, p: p, chunk: rc.chunk}
				for i := range ph.Outs {
					m := &ph.Outs[i]
					if m.To != d.To || m.Lane != d.Lane || m.From == m.To {
						continue
					}
					src := sub.bufAt(m.SrcBuf, m.From, m.SrcOff, m.SrcLen())
					if m.Staged {
						sub.put(m.To, src, src.Len(), slot)
					} else {
						dst := sub.bufAt(m.DstBuf, m.To, m.DstOff, m.Bytes)
						sub.putDirect(m.To, dst, src, m.Bytes)
					}
				}
				counter.Done()
			})
		}
		for i := range ph.Outs {
			m := &ph.Outs[i]
			if m.From != m.To {
				continue
			}
			src := rc.bufAt(m.SrcBuf, m.From, m.SrcOff, m.Bytes)
			dst := rc.bufAt(m.DstBuf, m.To, m.DstOff, m.Bytes)
			rc.localCopy(dst, src, m.Bytes)
		}
		for i := range ph.Ins {
			m := &ph.Ins[i]
			if m.Staged {
				si, buf := rc.get(m.From, slot)
				dst := rc.bufAt(m.DstBuf, rc.rank, m.DstOff, m.Bytes)
				if m.Reduce {
					rc.reduceTo(op, dt, dst, dst, buf, int(m.Bytes/esz))
				} else {
					copy(dst.Bytes(), buf.Bytes()[:m.Bytes])
					rc.p.Sleep(rc.dev().CopyTime(m.Bytes))
				}
				rc.release(m.From, si, slot)
			} else {
				rc.waitDirect(m.From)
			}
		}
		counter.Wait(rc.p)
		// A later phase may overwrite what this one sent, and nothing
		// orders that after the consumer's read.
		rc.settle()
	}
}

// compName labels a compiled plan's sender processes.
func compName(op string) func(from, to, lane int) string {
	return func(from, to, lane int) string {
		return fmt.Sprintf("comp/%s/r%d-%d.%d", op, from, to, lane)
	}
}

// invalidPlan wraps a compile error as the backend's argument error.
func (c *Comm) invalidPlan(op string, err error) error {
	return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: op,
		Rank: c.rank, Msg: err.Error()}
}

// Alltoall exchanges count-element blocks between every rank pair through
// a compiled plan. plan names a strategy key ("direct", "phased", ...);
// empty or "auto" runs the cost-model search. Both buffers hold n blocks.
func (c *Comm) Alltoall(send, recv *device.Buffer, count int, dt Datatype, plan string, s *device.Stream) error {
	if err := c.validate("alltoall", nil, nil, count, dt, nil, 0); err != nil {
		return err
	}
	n := int64(c.core.n)
	blk := int64(count) * int64(dt.Size())
	if send == nil || recv == nil || send.Len() < blk*n || recv.Len() < blk*n {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: "alltoall",
			Rank: c.rank, Msg: "alltoall buffers must hold one block per rank"}
	}
	pl, err := c.core.compiledPlan("alltoall", blk, 0, plan)
	if err != nil {
		return c.invalidPlan("alltoall", err)
	}
	a := c.core.newArgs(send, recv, count, 0)
	slot := planSlot(pl)
	c.enqueueColl(s, "alltoall", a, blk, func(rc *runCtx, a *opArgs) {
		rc.chunk = pl.ChunkBytes
		rc.runPlan(pl, dt, Sum, slot, compName("alltoall"))
	})
	return nil
}

// Alltoallv exchanges per-peer-sized blocks through a compiled pairing
// schedule. Counts and displacements are in elements; each rank knows only
// its own, so the move program is built at run time once all ranks'
// arguments rendezvous (see vPlan).
func (c *Comm) Alltoallv(send *device.Buffer, scounts, sdispls []int,
	recv *device.Buffer, rcounts, rdispls []int, dt Datatype, plan string, s *device.Stream) error {
	if err := c.validate("alltoallv", nil, nil, 0, dt, nil, 0); err != nil {
		return err
	}
	n := c.core.n
	if len(scounts) != n || len(sdispls) != n || len(rcounts) != n || len(rdispls) != n {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: "alltoallv",
			Rank: c.rank, Msg: "alltoallv wants one count and displacement per rank"}
	}
	key := plan
	if key == "" || key == "auto" {
		// Search on the largest per-peer block — the size that drives the
		// convoy behavior the pairing schedule exists to avoid.
		var maxBytes int64
		esz := int64(dt.Size())
		for _, cnt := range scounts {
			if b := int64(cnt) * esz; b > maxBytes {
				maxBytes = b
			}
		}
		p, err := c.core.compiledPlan("alltoall", maxBytes, 0, "")
		if err != nil {
			return c.invalidPlan("alltoallv", err)
		}
		key = p.Key
	}
	strat, err := comp.ParseKey(key)
	if err != nil {
		return c.invalidPlan("alltoallv", err)
	}
	if err := comp.ValidKey("alltoallv", key); err != nil {
		return c.invalidPlan("alltoallv", err)
	}
	a := c.core.newArgs(send, recv, 0, 0)
	a.scounts, a.sdispls, a.rcounts, a.rdispls = scounts, sdispls, rcounts, rdispls
	esz := int64(dt.Size())
	c.enqueueColl(s, "alltoallv", a, 0, func(rc *runCtx, a *opArgs) {
		pl := rc.vPlan(strat, esz)
		rc.chunk = pl.ChunkBytes
		rc.runPlan(pl, dt, Sum, 1, compName("alltoallv"))
	})
	return nil
}

// vPlan builds (once per op, by the first rank to execute) the alltoallv
// move program from every rank's counts: the pairing schedule is compiled
// (comp.PairPhase), the move list is runtime data. Runs after the start
// rendezvous, so all ranks' opArgs are visible.
func (rc *runCtx) vPlan(strat comp.Strategy, esz int64) *comp.Plan {
	st, co := rc.st, rc.co
	if st.vplan != nil {
		return st.vplan.(*comp.Plan)
	}
	t := co.compTopo()
	nPhases := comp.NumPhases(t, strat)
	plan := &comp.Plan{Op: "alltoallv", Key: strat.Key(), Ranks: co.n,
		Phases: make([]comp.Phase, nPhases), Fenced: nPhases > 1,
		ChunkBytes: strat.Chunk, PipeDepth: 1}
	for r := 0; r < co.n; r++ {
		ar := st.args[r]
		for q := 0; q < co.n; q++ {
			ln := int64(ar.scounts[q]) * esz
			if ln == 0 {
				continue
			}
			ph := comp.PairPhase(t, strat, r, q)
			plan.Phases[ph].Moves = append(plan.Phases[ph].Moves, comp.Move{
				From: r, To: q,
				SrcBuf: comp.SendBuf, SrcOff: int64(ar.sdispls[q]) * esz,
				DstBuf: comp.RecvBuf, DstOff: int64(st.args[q].rdispls[r]) * esz,
				Bytes: ln,
			})
		}
	}
	st.vplan = plan
	return plan
}

// Scatter distributes root's n blocks through a compiled plan (direct fan
// or leader-staged hierarchy). Non-root send buffers may be nil.
func (c *Comm) Scatter(send, recv *device.Buffer, count int, dt Datatype, root int, plan string, s *device.Stream) error {
	if err := c.validate("scatter", nil, recv, count, dt, nil, root); err != nil {
		return err
	}
	n := int64(c.core.n)
	blk := int64(count) * int64(dt.Size())
	if c.rank == root && (send == nil || send.Len() < blk*n) {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: "scatter",
			Rank: c.rank, Msg: "scatter root send buffer must hold one block per rank"}
	}
	pl, err := c.core.compiledPlan("scatter", blk, root, plan)
	if err != nil {
		return c.invalidPlan("scatter", err)
	}
	a := c.core.newArgs(send, recv, count, root)
	slot := planSlot(pl)
	c.enqueueColl(s, "scatter", a, blk, func(rc *runCtx, a *opArgs) {
		rc.chunk = pl.ChunkBytes
		rc.runPlan(pl, dt, Sum, slot, compName("scatter"))
	})
	return nil
}

// Gather collects every rank's block at root through a compiled plan.
// Non-root recv buffers may be nil.
func (c *Comm) Gather(send, recv *device.Buffer, count int, dt Datatype, root int, plan string, s *device.Stream) error {
	if err := c.validate("gather", send, nil, count, dt, nil, root); err != nil {
		return err
	}
	n := int64(c.core.n)
	blk := int64(count) * int64(dt.Size())
	if c.rank == root && (recv == nil || recv.Len() < blk*n) {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: "gather",
			Rank: c.rank, Msg: "gather root recv buffer must hold one block per rank"}
	}
	pl, err := c.core.compiledPlan("gather", blk, root, plan)
	if err != nil {
		return c.invalidPlan("gather", err)
	}
	a := c.core.newArgs(send, recv, count, root)
	slot := planSlot(pl)
	c.enqueueColl(s, "gather", a, blk, func(rc *runCtx, a *opArgs) {
		rc.chunk = pl.ChunkBytes
		rc.runPlan(pl, dt, Sum, slot, compName("gather"))
	})
	return nil
}

// PlanFor reports the plan the communicator would run for (op, block
// size, root) under the given key (""/"auto" = search): the strategy key
// and its modeled cost. The tuner sweeps candidate keys with this.
func (c *Comm) PlanFor(op string, blockBytes int64, root int, key string) (string, float64, error) {
	p, err := c.core.compiledPlan(op, blockBytes, root, key)
	if err != nil {
		return "", 0, err
	}
	return p.Key, p.Cost, nil
}

// PlanKeys lists the candidate strategy keys for op on this
// communicator's topology.
func (c *Comm) PlanKeys(op string) []string {
	return comp.Keys(op, c.core.compTopo())
}
