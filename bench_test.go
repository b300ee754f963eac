// Package mpixccl's root benchmark suite regenerates every table and
// figure of the paper's evaluation (one benchmark per exhibit) plus the
// ablation studies called out in DESIGN.md. Wall-clock time measures the
// simulator; the scientifically meaningful numbers are the virtual-time
// metrics attached with b.ReportMetric:
//
//	virt-us/op   virtual microseconds per operation (latency exhibits)
//	img/s        simulated training throughput (application exhibits)
//	MB/s         simulated wire bandwidth (point-to-point exhibits)
//
// Run: go test -bench=. -benchmem
package mpixccl

import (
	"testing"

	"mpixccl/internal/core"
	"mpixccl/internal/dl"
	"mpixccl/internal/experiments"
	"mpixccl/internal/omb"
	"mpixccl/internal/topology"
)

// BenchmarkTable1 regenerates the hardware summary (Table 1).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := topology.Table1(); len(rows) != 3 {
			b.Fatal("table1 incomplete")
		}
	}
}

func virtUS(b *testing.B, lat float64) { b.ReportMetric(lat, "virt-us/op") }

// lastLatencyUS runs one collective config and reports the largest-size
// latency in virtual µs.
func lastLatencyUS(b *testing.B, cfg omb.Config, op omb.Collective) float64 {
	b.Helper()
	res, err := omb.RunCollective(cfg, op)
	if err != nil {
		b.Fatal(err)
	}
	return float64(res[len(res)-1].Latency.Nanoseconds()) / 1e3
}

// BenchmarkFig1aAllreduceCrossover measures MPI vs pure NCCL Allreduce on
// 4 nodes / 32 GPUs (Fig 1a): MPI must win at 1 KB, NCCL at 1 MB.
func BenchmarkFig1aAllreduceCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small := omb.Config{System: "thetagpu", Nodes: 4, MinBytes: 1 << 10, MaxBytes: 1 << 10, Iterations: 1}
		large := small
		large.MinBytes, large.MaxBytes = 1<<20, 1<<20
		small.Stack, large.Stack = omb.StackMPI, omb.StackMPI
		mpiSmall := lastLatencyUS(b, small, omb.Allreduce)
		mpiLarge := lastLatencyUS(b, large, omb.Allreduce)
		small.Stack, large.Stack = omb.StackPureCCL, omb.StackPureCCL
		ncclSmall := lastLatencyUS(b, small, omb.Allreduce)
		ncclLarge := lastLatencyUS(b, large, omb.Allreduce)
		if mpiSmall >= ncclSmall || ncclLarge >= mpiLarge {
			b.Fatalf("crossover shape broken: mpi %0.f/%0.f nccl %0.f/%0.f µs",
				mpiSmall, mpiLarge, ncclSmall, ncclLarge)
		}
		virtUS(b, ncclLarge)
	}
}

// BenchmarkFig1bAllgatherCrossover is Fig 1b on the AMD system.
func BenchmarkFig1bAllgatherCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := omb.Config{System: "mri", Nodes: 4, MinBytes: 1 << 10, MaxBytes: 1 << 10,
			Iterations: 1, Stack: omb.StackMPI}
		mpiSmall := lastLatencyUS(b, cfg, omb.Allgather)
		cfg.Stack = omb.StackPureCCL
		rcclSmall := lastLatencyUS(b, cfg, omb.Allgather)
		if mpiSmall >= rcclSmall {
			b.Fatalf("MPI (%.0fµs) should beat RCCL (%.0fµs) at 1KB", mpiSmall, rcclSmall)
		}
		virtUS(b, rcclSmall)
	}
}

// BenchmarkFig3IntraNodeP2P measures the NCCL intra-node sweep (Fig 3) and
// reports peak bandwidth.
func BenchmarkFig3IntraNodeP2P(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := omb.RunPt2Pt(omb.Config{System: "thetagpu", Nodes: 1,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1}, omb.BandwidthBench)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[0].BandwidthMBs, "MB/s")
	}
}

// BenchmarkFig4InterNodeP2P measures the NCCL inter-node 4 MB latency (Fig 4).
func BenchmarkFig4InterNodeP2P(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := omb.RunPt2Pt(omb.Config{System: "thetagpu", Nodes: 2,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1}, omb.LatencyBench)
		if err != nil {
			b.Fatal(err)
		}
		virtUS(b, float64(res[0].Latency.Nanoseconds())/1e3)
	}
}

// BenchmarkFig5SingleNodeCollectives runs the single-node hybrid grid entry
// (NCCL allreduce, 8 GPUs) at 4 MB.
func BenchmarkFig5SingleNodeCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		virtUS(b, lastLatencyUS(b, omb.Config{System: "thetagpu", Nodes: 1,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1, Stack: omb.StackHybrid}, omb.Allreduce))
	}
}

// BenchmarkFig6MultiNodeCollectives runs the multi-node grid entry (NCCL
// allreduce, 2 nodes quick-scale) at 4 MB.
func BenchmarkFig6MultiNodeCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		virtUS(b, lastLatencyUS(b, omb.Config{System: "thetagpu", Nodes: 2,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1, Stack: omb.StackHybrid}, omb.Allreduce))
	}
}

// BenchmarkFig6MultiNodeCollectivesHier reruns the Fig 6 entry with a
// tuned table that forces the topology-aware hierarchical allreduce —
// the tentpole win: intra-node traffic stays on NVLink and only the node
// leaders cross the IB fabric, in pipelined chunks.
func BenchmarkFig6MultiNodeCollectivesHier(b *testing.B) {
	table := core.HierarchicalTableFor("thetagpu", core.NCCL, true, 0)
	for i := 0; i < b.N; i++ {
		virtUS(b, lastLatencyUS(b, omb.Config{System: "thetagpu", Nodes: 2,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1, Stack: omb.StackHybrid,
			Table: table}, omb.Allreduce))
	}
}

// BenchmarkFig6AlltoallLoop measures the pre-compiler Alltoall on the
// Fig 6 multi-node topology scaled to 4 nodes / 32 ranks with 4 MB
// blocks: the grouped send-recv loop posts all n-1 puts at once and
// convoys the inter-node wire.
func BenchmarkFig6AlltoallLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		virtUS(b, lastLatencyUS(b, omb.Config{System: "thetagpu", Nodes: 4,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1,
			Stack: omb.StackPureXCCL}, omb.Alltoall))
	}
}

// BenchmarkFig6AlltoallCompiled reruns the same sweep with the collective
// compiler on: the cost-model search lowers the alltoall to the phased
// permutation schedule (rank r talks to rank r^phase, one partner per
// step), which spreads the inter-node traffic across disjoint pairs. The
// >= 20% virtual-time win over the loop variant is gated in
// scripts/bench.sh.
func BenchmarkFig6AlltoallCompiled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		virtUS(b, lastLatencyUS(b, omb.Config{System: "thetagpu", Nodes: 4,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1,
			Stack: omb.StackPureXCCL, Compile: true}, omb.Alltoall))
	}
}

func dlBench(b *testing.B, cfg dl.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := dl.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.ImgPerSec, "img/s")
	}
}

// BenchmarkFig7HorovodNvidia is the 1-node NVIDIA training exhibit.
func BenchmarkFig7HorovodNvidia(b *testing.B) {
	dlBench(b, dl.Config{System: "thetagpu", Nodes: 1, BatchSize: 32, Steps: 1, Engine: dl.EngineXCCL})
}

// BenchmarkFig8HorovodAMD is the 4-node AMD training exhibit.
func BenchmarkFig8HorovodAMD(b *testing.B) {
	dlBench(b, dl.Config{System: "mri", Nodes: 4, BatchSize: 64, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.RCCL})
}

// BenchmarkFig9HorovodHabana is the 1-node Habana training exhibit.
func BenchmarkFig9HorovodHabana(b *testing.B) {
	dlBench(b, dl.Config{System: "voyager", Nodes: 1, BatchSize: 128, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.HCCL})
}

// BenchmarkFig10HorovodMSCCL is the 2-node MSCCL training exhibit.
func BenchmarkFig10HorovodMSCCL(b *testing.B) {
	dlBench(b, dl.Config{System: "thetagpu", Nodes: 2, BatchSize: 128, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.MSCCL})
}

// BenchmarkFig10HorovodMSCCLHier reruns the 2-node training exhibit with
// the hierarchical-collectives table: the gradient-bucket allreduces keep
// intra-node reduction on NVLink, lifting simulated img/s.
func BenchmarkFig10HorovodMSCCLHier(b *testing.B) {
	dlBench(b, dl.Config{System: "thetagpu", Nodes: 2, BatchSize: 128, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.MSCCL,
		Table: core.HierarchicalTableFor("thetagpu", core.MSCCL, true, 0)})
}

// Persistent-collective variants of the training exhibits: the fusion
// buckets run on MPI_Allreduce_init-style handles (plan selection, scratch
// sizing and breaker consultation paid once at Init), with partitioned
// readiness overlapping the gradient fill with the intra-node phase. The
// deltas vs the one-shot exhibits above are the PR's headline: higher img/s
// and far fewer allocs/op (steady-state Start/Wait allocates nothing).

// BenchmarkFig7HorovodNvidiaPersistent is Fig 7 on persistent handles.
func BenchmarkFig7HorovodNvidiaPersistent(b *testing.B) {
	dlBench(b, dl.Config{System: "thetagpu", Nodes: 1, BatchSize: 32, Steps: 1,
		Engine: dl.EngineXCCL, Persistent: true})
}

// BenchmarkFig8HorovodAMDPersistent is Fig 8 on persistent handles.
func BenchmarkFig8HorovodAMDPersistent(b *testing.B) {
	dlBench(b, dl.Config{System: "mri", Nodes: 4, BatchSize: 64, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.RCCL, Persistent: true})
}

// BenchmarkFig9HorovodHabanaPersistent is Fig 9 on persistent handles.
func BenchmarkFig9HorovodHabanaPersistent(b *testing.B) {
	dlBench(b, dl.Config{System: "voyager", Nodes: 1, BatchSize: 128, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.HCCL, Persistent: true})
}

// BenchmarkFig10HorovodMSCCLPersistent is Fig 10 on persistent handles.
func BenchmarkFig10HorovodMSCCLPersistent(b *testing.B) {
	dlBench(b, dl.Config{System: "thetagpu", Nodes: 2, BatchSize: 128, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.MSCCL, Persistent: true})
}

// BenchmarkFig10HorovodMSCCLHierPersistent stacks both tentpoles: the
// hierarchical-collectives table plus persistent partitioned handles, so
// backprop's partition fills overlap the NVLink intra-node reduction while
// only node leaders cross the IB fabric.
func BenchmarkFig10HorovodMSCCLHierPersistent(b *testing.B) {
	dlBench(b, dl.Config{System: "thetagpu", Nodes: 2, BatchSize: 128, Steps: 1,
		Engine: dl.EngineXCCL, Backend: core.MSCCL, Persistent: true,
		Table: core.HierarchicalTableFor("thetagpu", core.MSCCL, true, 0)})
}

// Ablations (DESIGN.md §5).

// BenchmarkAblationHybridVsPure quantifies the hybrid design's small-message
// win over pure CCL dispatch (design decision 3).
func BenchmarkAblationHybridVsPure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := omb.Config{System: "thetagpu", Nodes: 1, MinBytes: 1 << 10, MaxBytes: 1 << 10,
			Iterations: 1, Stack: omb.StackHybrid}
		hyb := lastLatencyUS(b, cfg, omb.Allreduce)
		cfg.Stack = omb.StackPureXCCL
		pure := lastLatencyUS(b, cfg, omb.Allreduce)
		if hyb >= pure {
			b.Fatalf("hybrid (%.1fµs) lost to pure CCL (%.1fµs) at 1KB", hyb, pure)
		}
		b.ReportMetric(pure/hyb, "speedup")
	}
}

// BenchmarkAblationChannels quantifies the multi-channel mechanism behind
// CCL bandwidth (design decision 2): NCCL's 12 channels vs the MPI path's 2.
func BenchmarkAblationChannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := omb.Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 20, MaxBytes: 4 << 20,
			Iterations: 1, Stack: omb.StackPureCCL}
		ccl := lastLatencyUS(b, cfg, omb.Allreduce)
		cfg.Stack = omb.StackMPI
		mpi := lastLatencyUS(b, cfg, omb.Allreduce)
		if ccl >= mpi {
			b.Fatalf("12-channel NCCL (%.0fµs) lost to 2-channel MPI (%.0fµs) at 4MB", ccl, mpi)
		}
		b.ReportMetric(mpi/ccl, "speedup")
	}
}

// BenchmarkAblationMSCCLCustom quantifies the custom allpairs schedule
// against the embedded NCCL 2.12 (design decision on programmability).
func BenchmarkAblationMSCCLCustom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := omb.Config{System: "thetagpu", Nodes: 1, MinBytes: 32 << 10, MaxBytes: 32 << 10,
			Iterations: 1, Stack: omb.StackPureCCL, Backend: core.MSCCL}
		custom := lastLatencyUS(b, cfg, omb.Allreduce)
		cfg.Backend = core.LegacyNCCL
		legacy := lastLatencyUS(b, cfg, omb.Allreduce)
		b.ReportMetric(legacy/custom, "speedup")
	}
}

// BenchmarkAblationTunedTable compares the shipped default table against a
// freshly tuned one (design decision 3: offline tuning). Tuning runs on a
// 2-node shape where the algorithm sweep has room to act: at 4 MB both
// tables pick the CCL path, but only the tuned one selects the hierarchical
// schedule, so the ratio measures the algorithm-level win rather than
// sitting in a dead zone where both tables agree.
func BenchmarkAblationTunedTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := omb.Tune(omb.Config{System: "thetagpu", Nodes: 2,
			MinBytes: 256 << 10, MaxBytes: 4 << 20, Iterations: 1}, []omb.Collective{omb.Allreduce})
		if err != nil {
			b.Fatal(err)
		}
		cfg := omb.Config{System: "thetagpu", Nodes: 2, MinBytes: 4 << 20, MaxBytes: 4 << 20,
			Iterations: 1, Stack: omb.StackHybrid, Table: table}
		tuned := lastLatencyUS(b, cfg, omb.Allreduce)
		cfg.Table = nil
		builtin := lastLatencyUS(b, cfg, omb.Allreduce)
		if tuned >= builtin {
			b.Fatalf("tuned table must beat builtin at 4MB: tuned=%.1fus builtin=%.1fus", tuned, builtin)
		}
		b.ReportMetric(builtin/tuned, "tuned-vs-builtin")
	}
}

// BenchmarkExperimentTable1 exercises the experiments harness end to end on
// its cheapest exhibit, keeping the figure pipeline itself under benchmark.
func BenchmarkExperimentTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run("table1", experiments.Quick)
		if err != nil || len(out) == 0 {
			b.Fatalf("table1: %v", err)
		}
	}
}

// BenchmarkScale4096AllReduce runs the 4096-rank hierarchical AllReduce
// scale model; its virtual time is pinned in scale_test.go.
func BenchmarkScale4096AllReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunScale(experiments.ScaleConfig{Ranks: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if !r.OK {
			b.Fatalf("digest check failed: %+v", r)
		}
		virtUS(b, float64(r.VirtTime.Nanoseconds())/1e3)
	}
}
