package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/fault"
	"mpixccl/internal/mpi"
	"mpixccl/internal/trace"
)

// Fault-path parity: every admission check and fault class must end the
// same way whether the collective is a one-shot Allreduce or one wave of a
// persistent handle — the same failure verdict on every rank, the same
// Stats, and the same trace records (times aside). Each class runs twice on
// identically built worlds; the only difference is the measured call.

const parityCount = 256

// parityCase is one admission or fault class.
type parityCase struct {
	name   string
	nranks int
	pol    func() *Resilience
	faults func(rt *Runtime) // attaches the fault plan; nil = none
	// setup runs first on every rank and returns the handle the measured
	// collective runs on, or nil when the rank sits out. The persistent
	// world builds its handle on it right after.
	setup func(t *testing.T, rt *Runtime, x *Comm) *Comm
	// arm brings the handle into the fault state; false sits the rank out.
	arm func(t *testing.T, x, h *Comm) bool
	// want is the failure every measured rank must observe (nil = none).
	want error
}

// parityResult is what one world leaves behind.
type parityResult struct {
	failures map[int]string // world rank -> Failure() of the measured handle
	stats    Stats
	records  []string // trace records without their times, sorted
}

func runParity(t *testing.T, c parityCase, persistent bool) parityResult {
	t.Helper()
	rec := trace.New()
	rt := newRuntime(t, "thetagpu", c.nranks, Options{
		Backend: Auto, Mode: PureCCL, Trace: rec, Resilience: c.pol(),
	})
	if c.faults != nil {
		c.faults(rt)
	}
	res := parityResult{failures: make(map[int]string)}
	if err := rt.Run(func(x *Comm) {
		buf := x.Device().MustMalloc(parityCount * 4)
		defer buf.Free()
		buf.FillFloat32(1)
		h := c.setup(t, rt, x)
		if h == nil {
			return
		}
		var po *PersistentOp
		if persistent {
			var err error
			po, err = h.AllReduceInit(buf, buf, parityCount, mpi.Float32, mpi.OpSum)
			if err != nil {
				t.Errorf("world rank %d: AllReduceInit: %v", x.MPI().WorldRank(), err)
				return
			}
			defer po.Free()
		}
		if c.arm != nil && !c.arm(t, x, h) {
			return
		}
		if persistent {
			po.Do()
		} else {
			h.Allreduce(buf, buf, parityCount, mpi.Float32, mpi.OpSum)
		}
		f := h.Failure()
		if c.want == nil && f != nil || c.want != nil && !errors.Is(f, c.want) {
			t.Errorf("world rank %d (persistent %v): failure = %v, want %v",
				x.MPI().WorldRank(), persistent, f, c.want)
		}
		res.failures[x.MPI().WorldRank()] = fmt.Sprint(f)
	}); err != nil {
		t.Fatal(err)
	}
	res.stats = rt.Stats()
	for _, r := range rec.Records() {
		res.records = append(res.records, fmt.Sprintf("%s/%s/%s/r%d/%dB/%s",
			r.Op, r.Path, r.Backend, r.Rank, r.Bytes, r.Event))
	}
	sort.Strings(res.records)
	return res
}

// warmup runs one fault-free Allreduce, building the CCL communicator in
// both worlds before any fault applies.
func warmup(t *testing.T, rt *Runtime, x *Comm) *Comm {
	allreduceOnce(t, x, parityCount)
	return x
}

func TestFaultPathParityPersistentVsOneShot(t *testing.T) {
	const cut = 50 * time.Microsecond
	nodeCut := func(rt *Runtime) {
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddPartitionRule(fault.PartitionRule{
			Name: "cut", Nodes: []int{1}, From: cut,
		}))
	}
	cases := []parityCase{
		{
			// The minority of a node cut loses the quorum vote and fences;
			// a fresh handle on a fenced rank no-ops with ErrFenced.
			name: "fenced", nranks: 12, pol: watchdogPolicy, faults: nodeCut,
			setup: func(t *testing.T, rt *Runtime, x *Comm) *Comm {
				warmup(t, rt, x)
				return rt.Wrap(x.MPI())
			},
			arm: func(t *testing.T, x, h *Comm) bool {
				x.MPI().Proc().Sleep(cut)
				buf := x.Device().MustMalloc(parityCount * 4)
				defer buf.Free()
				x.Allreduce(buf, buf, parityCount, mpi.Float32, mpi.OpSum)
				_, err := x.Shrink()
				return errors.Is(err, ErrNoQuorum)
			},
			want: ErrFenced,
		},
		{
			name: "revoked", nranks: 2, pol: watchdogPolicy,
			setup: warmup,
			arm: func(t *testing.T, x, h *Comm) bool {
				x.Barrier() // every rank holds its handle before the revoke
				if x.Rank() == 0 {
					x.Revoke()
				}
				x.Barrier()
				return true
			},
			want: ErrCommRevoked,
		},
		{
			// Ranks 0-1 are active, rank 2 a spare: a revoke+shrink and a
			// Grow that adopts the spare supersede the shrunk handle.
			name: "stale-epoch", nranks: 3, pol: watchdogPolicy,
			setup: func(t *testing.T, rt *Runtime, x *Comm) *Comm {
				if x.MPI().Rank() == 2 {
					if _, adopted := x.WaitAsSpare(nil); !adopted {
						t.Error("spare not adopted")
					}
					return nil
				}
				x = rt.Wrap(x.MPI().Subset([]int{0, 1}))
				warmup(t, rt, x)
				if x.Rank() == 0 {
					x.Revoke()
				}
				x.Barrier()
				nx, err := x.Shrink()
				if err != nil {
					t.Errorf("shrink: %v", err)
					return nil
				}
				return nx
			},
			arm: func(t *testing.T, x, h *Comm) bool {
				if _, _, err := h.Grow(1); err != nil {
					t.Errorf("grow: %v", err)
					return false
				}
				return true
			},
			want: ErrStaleEpoch,
		},
		{
			// Rank 2 fail-stops; the heartbeat detector confirms it before
			// the survivors dispatch, so they fast-fail with ErrRankDead.
			name: "heartbeat-suspect", nranks: 4, pol: heartbeatPolicy,
			faults: func(rt *Runtime) {
				rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddRule(fault.Rule{
					Name: "die", Crash: true, Ranks: []int{2}, From: time.Millisecond,
				}))
			},
			setup: warmup,
			arm: func(t *testing.T, x, h *Comm) bool {
				p := x.MPI().Proc()
				if x.Rank() == 2 {
					p.Sleep(time.Millisecond)
					return false
				}
				p.Sleep(time.Millisecond + heartbeatPolicy().WatchdogTimeout)
				return true
			},
			want: ccl.ErrRankDead,
		},
		{
			name: "partition-cut", nranks: 12, pol: watchdogPolicy, faults: nodeCut,
			setup: warmup,
			arm: func(t *testing.T, x, h *Comm) bool {
				x.MPI().Proc().Sleep(cut)
				return true
			},
			want: ccl.ErrUnreachable,
		},
		{
			// The cut opens just after dispatch passed the admission check:
			// a severed transfer voids the wave on every rank.
			name: "mid-wave-cut", nranks: 12, pol: watchdogPolicy,
			faults: func(rt *Runtime) {
				rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddPartitionRule(fault.PartitionRule{
					Name: "midcut", Nodes: []int{1}, From: cut + 100*time.Nanosecond,
				}))
			},
			setup: warmup,
			arm: func(t *testing.T, x, h *Comm) bool {
				x.MPI().Proc().Sleep(cut)
				return true
			},
			want: ccl.ErrUnreachable,
		},
		{
			// Rank 2 crashes on its second allreduce: its own call fails
			// fast, the survivors' watchdogs abandon the wave.
			name: "mid-wave-crash", nranks: 4, pol: watchdogPolicy,
			faults: func(rt *Runtime) {
				rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddRule(fault.Rule{
					Name: "crash", Crash: true, Ranks: []int{2}, Op: "allreduce", After: 1,
				}))
			},
			setup: warmup,
			want:  ccl.ErrRankDead,
		},
		{
			// A non-transient library error on every rank's call: no retry,
			// the operation completes on MPI, and the four consecutive
			// failures open the breaker (threshold 3).
			name: "ccl-error", nranks: 4, pol: DefaultResilience,
			faults: func(rt *Runtime) {
				rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddRule(fault.Rule{
					Name: "broken", Op: "allreduce", Result: ccl.ErrInternal, After: 4, Count: 4,
				}))
			},
			setup: warmup,
			arm: func(t *testing.T, x, h *Comm) bool {
				x.Barrier() // every warm-up success lands before the failures
				return true
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			one := runParity(t, c, false)
			pers := runParity(t, c, true)
			if len(one.failures) == 0 {
				t.Fatal("no rank ran the measured collective")
			}
			if fmt.Sprint(one.failures) != fmt.Sprint(pers.failures) {
				t.Errorf("failures differ:\none-shot   %v\npersistent %v", one.failures, pers.failures)
			}
			if one.stats != pers.stats {
				t.Errorf("stats differ:\none-shot   %+v\npersistent %+v", one.stats, pers.stats)
			}
			if fmt.Sprint(one.records) != fmt.Sprint(pers.records) {
				t.Errorf("trace records differ:\none-shot   %v\npersistent %v", one.records, pers.records)
			}
		})
	}
}
