package experiments

import (
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/dl"
	"mpixccl/internal/fabric"
	"mpixccl/internal/fault"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// stripWall zeroes the host wall time, the one field that differs between
// two runs of the same model.
func stripWall(r ScaleResult) ScaleResult {
	r.Wall = 0
	return r
}

// virt parses a virtual-time literal as the result table prints it.
func virt(s string) time.Duration {
	d, err := time.ParseDuration(s)
	if err != nil {
		panic(err)
	}
	return d
}

// runScaleTwice runs the model twice from fresh configs (a fault plan
// carries state, so each run needs its own) and fails unless the two runs
// agree in every field but wall time.
func runScaleTwice(t *testing.T, mk func() ScaleConfig) ScaleResult {
	t.Helper()
	first, err := RunScale(mk())
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunScale(mk())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripWall(second), stripWall(first); !reflect.DeepEqual(got, want) {
		t.Errorf("second run: %+v\nfirst: %+v", got, want)
	}
	return stripWall(first)
}

// scale128 is the 128-rank, 256 KiB thetagpu result the fault cases start
// from; each case overrides the fields its faults change.
func scale128(virtTime string) ScaleResult {
	return ScaleResult{System: "thetagpu", Ranks: 128, Nodes: 16, Bytes: 256 << 10,
		VirtTime: virt(virtTime), OK: true}
}

// TestScaleDeterministicAcrossShards pins the fault-free model: two runs
// agree, and the results match the literal values at 128 and 4096 ranks.
func TestScaleDeterministicAcrossShards(t *testing.T) {
	base := runScaleTwice(t, func() ScaleConfig { return ScaleConfig{Ranks: 128, Bytes: 256 << 10} })
	if !base.OK || base.VirtTime == 0 {
		t.Fatalf("serial run: %+v", base)
	}
	if want := scale128("125.58µs"); !reflect.DeepEqual(base, want) {
		t.Errorf("128 ranks: %+v\nwant: %+v", base, want)
	}
	// The default 4096-rank, 4 MiB model, once: the 128-rank pair above
	// already covers run-to-run determinism.
	r, err := RunScale(ScaleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := ScaleResult{System: "thetagpu", Ranks: 4096, Nodes: 512, Bytes: 4 << 20,
		VirtTime: virt("3.230306ms"), OK: true}
	if got := stripWall(r); !reflect.DeepEqual(got, want) {
		t.Errorf("4096 ranks: %+v\nwant: %+v", got, want)
	}
}

func TestScaleAcrossSystems(t *testing.T) {
	// Every preset (including non-power-of-two devices per node) must pass
	// the digest check and reproduce its virtual time.
	for _, tc := range []struct {
		sys  string
		dpn  int
		virt string
	}{
		{"thetagpu", 8, "95.745µs"},
		{"mri", 2, "125.293µs"},
		{"voyager", 8, "319.74µs"},
		{"aurora", 6, "86.673µs"},
	} {
		cfg := ScaleConfig{System: tc.sys, Ranks: 16 * tc.dpn, Bytes: 64 << 10}
		r := runScaleTwice(t, func() ScaleConfig { return cfg })
		if !r.OK {
			t.Fatalf("%s: digest check failed: %+v", tc.sys, r)
		}
		want := ScaleResult{System: tc.sys, Ranks: cfg.Ranks, Nodes: 16, Bytes: cfg.Bytes,
			VirtTime: virt(tc.virt), OK: true}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("%s: %+v\nwant: %+v", tc.sys, r, want)
		}
	}
}

// TestScaleFaultDeterminism is the ring's fault-injection contract: crash,
// brownout, and corrupt rules on the inter-node ring must produce the same
// verdicts and counters on every run, and the pinned values below.
func TestScaleFaultDeterminism(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		name   string
		faults func() *fault.Plan
		want   ScaleResult
		check  func(t *testing.T, r ScaleResult)
	}{
		{
			name: "crash",
			faults: func() *fault.Plan {
				return fault.NewPlan(42).AddRule(fault.Rule{
					Name: "leader5-dies", Ranks: []int{5}, From: 50 * us, Crash: true,
				})
			},
			want: func() ScaleResult {
				r := scale128("2.11198ms")
				r.OK, r.BadRanks, r.Crashed, r.Timeouts = false, 128, []int{5}, 15
				return r
			}(),
			check: func(t *testing.T, r ScaleResult) {
				if len(r.Crashed) != 1 || r.Crashed[0] != 5 {
					t.Errorf("crashed = %v, want [5]", r.Crashed)
				}
				if r.Timeouts == 0 || r.OK {
					t.Errorf("want detection timeouts and a failed check, got %+v", r)
				}
			},
		},
		{
			name: "brownout",
			faults: func() *fault.Plan {
				return fault.NewPlan(42).AddLinkRule(fault.LinkRule{
					Name: "inter-brownout", Link: "inter",
					From: 30 * us, Until: 70 * us,
					BWScale: 0.25, AlphaScale: 3,
				})
			},
			want: func() ScaleResult {
				r := scale128("156.38µs")
				r.Degraded = 64
				return r
			}(),
			check: func(t *testing.T, r ScaleResult) {
				if r.Degraded == 0 {
					t.Error("brownout window never hit a ring send")
				}
				if !r.OK {
					t.Errorf("brownout must not corrupt results: %+v", r)
				}
			},
		},
		{
			name: "corrupt",
			faults: func() *fault.Plan {
				return fault.NewPlan(42).AddCorruptRule(fault.CorruptRule{
					Name: "node7-flaky-nic", Link: "inter", Nodes: []int{7},
					From: 40 * us, Until: 55 * us,
				})
			},
			want: func() ScaleResult {
				r := scale128("139.18µs")
				r.OK, r.BadRanks = false, 64
				r.CorruptionsDetected, r.Retransmits, r.Unrecovered = 10, 8, 2
				return r
			}(),
			check: func(t *testing.T, r ScaleResult) {
				if r.CorruptionsDetected == 0 || r.Retransmits == 0 {
					t.Errorf("corrupt window never fired: %+v", r)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runScaleTwice(t, func() ScaleConfig {
				return ScaleConfig{Ranks: 128, Bytes: 256 << 10, Faults: tc.faults()}
			})
			if !reflect.DeepEqual(r, tc.want) {
				t.Errorf("%+v\nwant: %+v", r, tc.want)
			}
			tc.check(t, r)
		})
	}
}

// TestScalePartitionDeterminism extends the ring's fault contract to
// partition rules: a node-scoped cut on the leader ring must produce the
// same severed counts, verdicts, and virtual clock on every run. A healing
// cut delays the ring but completes OK; a permanent cut breaks it.
func TestScalePartitionDeterminism(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		name   string
		faults func() *fault.Plan
		want   ScaleResult
		check  func(t *testing.T, r ScaleResult)
	}{
		{
			name: "heal",
			faults: func() *fault.Plan {
				return fault.NewPlan(42).AddPartitionRule(fault.PartitionRule{
					Name: "node7-cut-heals", Nodes: []int{7},
					From: 40 * us, Until: 120 * us,
				})
			},
			want: func() ScaleResult {
				r := scale128("202.536µs")
				r.Severed = 16
				return r
			}(),
			check: func(t *testing.T, r ScaleResult) {
				if r.Severed == 0 {
					t.Errorf("cut window never hit a ring send: %+v", r)
				}
				if !r.OK || r.Timeouts != 0 {
					t.Errorf("healed cut must deliver late, not fail: %+v", r)
				}
			},
		},
		{
			name: "permanent",
			faults: func() *fault.Plan {
				return fault.NewPlan(42).AddPartitionRule(fault.PartitionRule{
					Name: "node7-cut", Nodes: []int{7}, From: 40 * us,
				})
			},
			want: func() ScaleResult {
				r := scale128("2.10178ms")
				r.OK, r.BadRanks, r.Timeouts, r.Severed = false, 128, 16, 16
				return r
			}(),
			check: func(t *testing.T, r ScaleResult) {
				if r.Severed == 0 || r.Timeouts == 0 || r.OK {
					t.Errorf("permanent cut must break the ring: %+v", r)
				}
				if len(r.Crashed) != 0 {
					t.Errorf("a severed leader is alive, got crashed %v", r.Crashed)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := runScaleTwice(t, func() ScaleConfig {
				return ScaleConfig{Ranks: 128, Bytes: 256 << 10, Faults: tc.faults()}
			})
			if !reflect.DeepEqual(r, tc.want) {
				t.Errorf("%+v\nwant: %+v", r, tc.want)
			}
			tc.check(t, r)
		})
	}
}

// TestPartitionVerdictsAcrossShards pins the membership layer's partition
// verdicts — epoch, fence and shrink counters, adopted ranks, and the loss
// trace — to be identical across two runs of the same seeded exhibit world.
func TestPartitionVerdictsAcrossShards(t *testing.T) {
	model := &dl.Model{Name: "shard-mlp"}
	for i := 0; i < 8; i++ {
		model.Tensors = append(model.Tensors, dl.Tensor{Name: "fc", Elems: 128 << 10})
	}
	run := func() dl.ElasticReport {
		cfg := dl.Config{
			System: "thetagpu", Nodes: 2, Ranks: 12, Model: model,
			Steps: 6, CheckpointEvery: 2,
		}
		cfg.Faults = fault.NewPlan(11).AddPartitionRule(fault.PartitionRule{
			Name: "cut-node1", Nodes: []int{1},
			From: 80 * time.Millisecond, Until: 150 * time.Millisecond,
		})
		rep, err := dl.TrainElastic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	first, second := run(), run()
	type verdict struct {
		Partitions, FencedRanks, Epoch int
		Shrinks, Grows                 int
		StartRanks, FinalRanks         int
		Adopted                        []int
		Loss                           []float64
	}
	v := func(r dl.ElasticReport) verdict {
		return verdict{r.Partitions, r.FencedRanks, r.Epoch, r.Shrinks, r.Grows,
			r.StartRanks, r.FinalRanks, r.AdoptedRanks, r.Loss}
	}
	if got, want := v(second), v(first); !reflect.DeepEqual(got, want) {
		t.Errorf("second run's verdicts: %+v\nfirst: %+v", got, want)
	}
	if first.Partitions != 1 || first.FencedRanks != 4 || first.Epoch < 2 {
		t.Errorf("expected one handled cut with a rejoin, got %+v", first)
	}
}

// ---------------------------------------------------------------------------
// Compiled-collective determinism.
//
// The tests above pin the SYNTHETIC leader-ring model; the ones below pin
// the REAL dispatch: a compiler-planned Alltoall (core.Options.Compile)
// driven through the full core runtime — fault pre-checks, watchdog
// verdicts, quorum membership — over two identical runs. Every field in a
// verdict is virtual-time-deterministic (payload CRCs, failure strings,
// membership stats, per-rank finish clocks), so reflect.DeepEqual must hold
// exactly, extending the stripWall pattern to the compiled executor.

// rankFate is one rank's distilled outcome.
type rankFate struct {
	Waves   int           // full-width compiled waves that completed
	CRC     uint32        // payload digest of the last good full-width wave
	Failure string        // the failure verdict the rank observed, verbatim
	PostCRC uint32        // payload digest after recovery (shrink or regrow)
	End     time.Duration // the rank's virtual finish time
}

// compiledVerdict is everything a run must reproduce.
type compiledVerdict struct {
	Ranks []rankFate
	Stats core.Stats
}

// compiledWorld builds a two-node thetagpu world with the collective
// compiler on and the fault plan armed.
func compiledWorld(t *testing.T, nranks int, plan *fault.Plan) *core.Runtime {
	t.Helper()
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 2)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	fab.SetFaults(plan)
	pol := core.DefaultResilience()
	pol.WatchdogTimeout = 200 * time.Microsecond
	rt, err := core.NewRuntime(mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, nranks),
		core.Options{Backend: core.Auto, Mode: core.PureCCL, Compile: true, Resilience: pol})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// runCompiledAlltoallCrash drives compiled Alltoall waves into a fail-stop
// crash of rank 5, lets the watchdog convert the stuck wave into ErrRankDead
// verdicts, shrinks, and runs one more compiled wave on the 15-rank group.
func runCompiledAlltoallCrash(t *testing.T) compiledVerdict {
	t.Helper()
	const nranks, count = 16, 1024
	blk := int64(count) * 4
	plan := fault.NewPlan(42).AddRule(fault.Rule{
		Name: "rank5-dies", Crash: true, Ranks: []int{5}, From: 60 * time.Microsecond,
	})
	rt := compiledWorld(t, nranks, plan)
	v := compiledVerdict{Ranks: make([]rankFate, nranks)}
	if err := rt.Run(func(x *core.Comm) {
		p := x.MPI().Proc()
		rv := &v.Ranks[x.Rank()]
		send := x.Device().MustMalloc(blk * nranks)
		recv := x.Device().MustMalloc(blk * nranks)
		defer send.Free()
		defer recv.Free()
		for wave := 0; wave < 4 && x.Failure() == nil && !x.Dead(); wave++ {
			for i := 0; i < count*nranks; i++ {
				send.SetFloat32(i, float32(x.Rank()+1)*100+float32(wave)+float32(i%17))
			}
			x.Alltoall(send, count, mpi.Float32, recv)
			if x.Failure() == nil {
				rv.Waves++
				rv.CRC = crc32.ChecksumIEEE(recv.Bytes())
			}
			p.Sleep(20 * time.Microsecond)
		}
		f := x.Failure()
		if f == nil {
			t.Errorf("rank %d: crash never surfaced", x.Rank())
			return
		}
		rv.Failure = f.Error()
		if x.Dead() {
			rv.End = p.Now()
			return // the crashed rank exits; survivors recover
		}
		if !errors.Is(f, ccl.ErrRankDead) {
			t.Errorf("rank %d: failure = %v, want ErrRankDead", x.Rank(), f)
		}
		x.Revoke()
		nx, err := x.Shrink()
		if err != nil {
			t.Errorf("rank %d shrink: %v", x.Rank(), err)
			return
		}
		// One compiled wave on the shrunk (15-rank, non-power-of-two) group.
		n := int64(nx.Size())
		for i := 0; i < count*int(n); i++ {
			send.SetFloat32(i, float32(nx.Rank()+1)+float32(i%13))
		}
		nx.Alltoall(send.Slice(0, blk*n), count, mpi.Float32, recv.Slice(0, blk*n))
		if err := nx.Failure(); err != nil {
			t.Errorf("rank %d post-shrink: %v", nx.Rank(), err)
			return
		}
		rv.PostCRC = crc32.ChecksumIEEE(recv.Bytes()[:blk*n])
		rv.End = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	v.Stats = rt.Stats()
	return v
}

// runCompiledAlltoallPartition drives a compiled Alltoall through the full
// heal-and-rejoin arc: a pre-cut wave, a fast-failing wave inside a healing
// node cut, quorum shrink + fence + rejoin, and a post-heal full-width wave.
func runCompiledAlltoallPartition(t *testing.T) compiledVerdict {
	t.Helper()
	const nranks, count = 12, 256
	blk := int64(count) * 4
	cut, heal := 50*time.Microsecond, 400*time.Microsecond
	plan := fault.NewPlan(7).AddPartitionRule(fault.PartitionRule{
		Name: "node1-cut-heals", Nodes: []int{1}, From: cut, Until: heal,
	})
	rt := compiledWorld(t, nranks, plan)
	v := compiledVerdict{Ranks: make([]rankFate, nranks)}
	if err := rt.Run(func(x *core.Comm) {
		p := x.MPI().Proc()
		wr := x.Rank() // world rank: stable across shrink/grow
		rv := &v.Ranks[wr]
		send := x.Device().MustMalloc(blk * nranks)
		recv := x.Device().MustMalloc(blk * nranks)
		defer send.Free()
		defer recv.Free()
		fill := func(rank, salt int) {
			for i := 0; i < count*nranks; i++ {
				send.SetFloat32(i, float32(rank+1)*10+float32(salt)+float32(i%29))
			}
		}

		// Before the cut: a full-width compiled wave completes everywhere.
		fill(wr, 0)
		x.Alltoall(send, count, mpi.Float32, recv)
		if err := x.Failure(); err != nil {
			t.Errorf("rank %d pre-cut: %v", wr, err)
			return
		}
		rv.Waves++
		rv.CRC = crc32.ChecksumIEEE(recv.Bytes())

		// Inside the window: the dispatch fast-fails instead of blocking.
		if now := p.Now(); now < cut+10*time.Microsecond {
			p.Sleep(cut + 10*time.Microsecond - now)
		}
		x.Alltoall(send, count, mpi.Float32, recv)
		f := x.Failure()
		if f == nil {
			t.Errorf("rank %d: cut wave succeeded", wr)
			return
		}
		if !errors.Is(f, ccl.ErrUnreachable) && !errors.Is(f, core.ErrCommRevoked) {
			t.Errorf("rank %d cut failure = %v, want ErrUnreachable or ErrCommRevoked", wr, f)
		}
		rv.Failure = f.Error()

		// Heal arc: the majority quorum-shrinks to 8 and polls Grow; the
		// minority loses the vote, fences, and rejoins once the cut heals.
		nx, serr := x.Shrink()
		if errors.Is(serr, core.ErrNoQuorum) {
			gx, ok := x.Rejoin(func() { p.Sleep(5 * time.Microsecond) })
			if !ok {
				t.Errorf("minority rank %d: rejoin not adopted", wr)
				return
			}
			x = gx
		} else if serr != nil {
			t.Errorf("rank %d shrink: %v", wr, serr)
			return
		} else {
			for {
				gx, _, gerr := nx.Grow(nranks - nx.Size())
				if gerr == nil {
					x = gx
					break
				}
				if !errors.Is(gerr, core.ErrNoSpares) {
					t.Errorf("rank %d grow: %v", wr, gerr)
					return
				}
				p.Sleep(50 * time.Microsecond)
			}
		}

		// Full width restored: the compiled wave completes on the regrown
		// communicator.
		if x.Size() != nranks {
			t.Errorf("rank %d: regrown size = %d, want %d", wr, x.Size(), nranks)
		}
		fill(x.Rank(), 1)
		x.Alltoall(send, count, mpi.Float32, recv)
		if err := x.Failure(); err != nil {
			t.Errorf("rank %d post-heal: %v", wr, err)
			return
		}
		rv.PostCRC = crc32.ChecksumIEEE(recv.Bytes())
		rv.End = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	v.Stats = rt.Stats()
	return v
}

// TestCompiledAlltoallShardDeterminism is the determinism contract for the
// collective compiler: the same crash and partition schedules must yield
// byte-identical verdicts on every run.
func TestCompiledAlltoallShardDeterminism(t *testing.T) {
	t.Run("crash", func(t *testing.T) {
		first := runCompiledAlltoallCrash(t)
		second := runCompiledAlltoallCrash(t)
		if !reflect.DeepEqual(second, first) {
			t.Errorf("second run's verdicts diverged:\n%+v\nfirst:\n%+v", second, first)
		}
		if st := first.Stats; st.RankFailures != 1 || st.Shrinks != 1 {
			t.Errorf("want one crash and one shrink, got %+v", st)
		}
		if st := first.Stats; st.CCLOps == 0 || st.MPIOps != 0 {
			t.Errorf("pure-CCL compiled run took the wrong path: %+v", st)
		}
	})
	t.Run("partition-heal", func(t *testing.T) {
		first := runCompiledAlltoallPartition(t)
		second := runCompiledAlltoallPartition(t)
		if !reflect.DeepEqual(second, first) {
			t.Errorf("second run's verdicts diverged:\n%+v\nfirst:\n%+v", second, first)
		}
		if st := first.Stats; st.Partitions != 1 || st.FencedRanks != 4 ||
			st.Shrinks != 1 || st.Grows != 1 || st.Epoch != 2 {
			t.Errorf("want one healed cut (shrink+grow, 4 fenced), got %+v", st)
		}
	})
}

func TestScaleRejectsUnevenRanks(t *testing.T) {
	for _, cfg := range []ScaleConfig{
		{Ranks: 100}, // not a multiple of 8-device nodes
		{Ranks: -8},
	} {
		if _, err := RunScale(cfg); err == nil {
			t.Errorf("%+v should be rejected", cfg)
		}
	}
}

func TestFormatScaleTable(t *testing.T) {
	r, err := RunScale(ScaleConfig{Ranks: 64, Bytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatScaleTable([]ScaleResult{r})
	for _, want := range []string{"ranks", "virt-time", "64KiB", "55.295µs", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
