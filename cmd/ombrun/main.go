// Command ombrun runs individual OSU-Micro-Benchmark-style measurements
// against any simulated stack, printing OMB-format tables.
//
// Usage:
//
//	ombrun -bench allreduce -system thetagpu -nodes 4 -stack hybrid-xccl
//	ombrun -bench latency -system voyager            # pt2pt over HCCL
//	ombrun -bench bw -system thetagpu -nodes 2       # inter-node NCCL bw
//	ombrun -bench allreduce -crash 2@10              # rank 2 fail-stops mid-sweep
//
// With -crash rank@call, the named rank fail-stops after its Nth CCL call
// and the collective watchdog (-watchdog, default 2ms) converts the peers'
// stuck operation into a bounded-time ErrRankDead verdict — demonstrating
// that a dead rank no longer deadlocks the kernel.
//
// With -partition rank@from[,until], a rank-scoped network cut severs that
// rank's CCL data plane from every peer at virtual time <from> (optionally
// healing at <until>); the MPI out-of-band control plane survives, so the
// sweep keeps running while every cross-cut collective fails fast with an
// ErrUnreachable verdict instead of hanging:
//
//	ombrun -bench allreduce -nodes 2 -partition 2@200us
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/omb"
)

func main() {
	bench := flag.String("bench", "allreduce",
		"latency|bw|bibw (pt2pt) or allreduce|reduce|bcast|alltoall|allgather|gather|scatter (collective)")
	system := flag.String("system", "thetagpu", "thetagpu|mri|voyager")
	nodes := flag.Int("nodes", 1, "node count")
	ranks := flag.Int("ranks", 0, "total ranks (0 = one per device)")
	stack := flag.String("stack", string(omb.StackHybrid),
		"hybrid-xccl|pure-xccl|mpi|openmpi-ucx|openmpi-ucx-ucc|pure-ccl")
	backend := flag.String("backend", "auto", "auto|nccl|rccl|hccl|msccl")
	min := flag.Int64("min", 4, "min message bytes")
	max := flag.Int64("max", 4<<20, "max message bytes")
	iters := flag.Int("iters", 2, "timed iterations per size")
	full := flag.Bool("f", false, "full results: min/avg/max across ranks (collectives)")
	metricsFile := flag.String("metrics", "",
		"write runtime metrics to this file in Prometheus text format ('-' for stdout)")
	crash := flag.String("crash", "",
		"fail-stop a rank as rank@call (dies after N CCL calls); CCL-backed stacks only")
	partition := flag.String("partition", "",
		"sever a rank's CCL data plane as rank@from[,until] virtual times (e.g. 2@200us or 2@200us,400us); CCL-backed stacks only")
	watchdog := flag.Duration("watchdog", 2*time.Millisecond,
		"collective watchdog deadline used when -crash is set (bounds dead-peer detection)")
	persistent := flag.Bool("persistent", false,
		"allreduce on persistent handles (MPI_Allreduce_init-style; hybrid/pure-xccl stacks)")
	compile := flag.Bool("compile", false,
		"run synthesized collectives (alltoall/gather/scatter) through compiled plans (hybrid/pure-xccl stacks)")
	flag.Parse()

	var reg *metrics.Registry
	if *metricsFile != "" {
		reg = metrics.NewRegistry()
	}
	cfg := omb.Config{
		System: *system, Nodes: *nodes, Ranks: *ranks,
		Stack: omb.Stack(*stack), Backend: core.BackendKind(*backend),
		MinBytes: *min, MaxBytes: *max, Iterations: *iters, Metrics: reg,
		Persistent: *persistent, Compile: *compile,
	}
	var plan *fault.Plan
	if *crash != "" {
		rule, err := parseCrash(*crash)
		if err != nil {
			fatal(err)
		}
		plan = fault.NewPlan(1).AddRule(rule)
	}
	var cut fault.PartitionRule
	if *partition != "" {
		rule, err := parsePartition(*partition)
		if err != nil {
			fatal(err)
		}
		cut = rule
		if plan == nil {
			plan = fault.NewPlan(1)
		}
		plan.AddPartitionRule(cut)
	}
	if plan != nil {
		cfg.Faults = plan
		pol := core.DefaultResilience()
		pol.WatchdogTimeout = *watchdog
		cfg.Resilience = pol
	}
	switch *bench {
	case "latency", "bw", "bibw":
		res, err := omb.RunPt2Pt(cfg, omb.Pt2PtKind(*bench))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# OMB pt2pt %s, %s, %d node(s), backend %s\n", *bench, *system, *nodes, *backend)
		fmt.Printf("%-12s %-14s %-14s\n", "Size", "Latency(us)", "BW(MB/s)")
		for _, r := range res {
			fmt.Printf("%-12d %-14.2f %-14.2f\n", r.Bytes, us(r), r.BandwidthMBs)
		}
	case "allreduce", "reduce", "bcast", "alltoall", "allgather", "gather", "scatter":
		res, err := omb.RunCollective(cfg, omb.Collective(*bench))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# OMB %s, %s, %d node(s), stack %s, backend %s\n",
			*bench, *system, *nodes, *stack, *backend)
		if *full {
			fmt.Printf("%-12s %-14s %-14s %-14s\n", "Size", "Avg(us)", "Min(us)", "Max(us)")
			for _, r := range res {
				fmt.Printf("%-12d %-14.2f %-14.2f %-14.2f\n", r.Bytes, us(r),
					float64(r.MinLatency.Nanoseconds())/1e3, float64(r.MaxLatency.Nanoseconds())/1e3)
			}
		} else {
			fmt.Printf("%-12s %-14s\n", "Size", "Avg Latency(us)")
			for _, r := range res {
				fmt.Printf("%-12d %-14.2f\n", r.Bytes, us(r))
			}
		}
	default:
		fatal(fmt.Errorf("unknown bench %q", *bench))
	}
	if *crash != "" {
		fmt.Printf("# crash injected (fired %d): the victim's calls fail fast; each survivor\n",
			plan.Fired("fail-stop"))
		fmt.Printf("# collective resolves at the %v watchdog instead of deadlocking, so\n", *watchdog)
		fmt.Printf("# post-crash sizes report the detection deadline, not real latency\n")
	}
	if *partition != "" {
		fmt.Printf("# partition injected: rank %d's CCL data plane severed from %v", cut.Ranks[0], cut.From)
		if cut.Until > 0 {
			fmt.Printf(" until %v", cut.Until)
		}
		fmt.Printf("\n# on; cross-cut collectives fail fast with an ErrUnreachable verdict\n")
		fmt.Printf("# (no hang, no watchdog wait), so in-window sizes report the fast-fail\n")
		fmt.Printf("# dispatch time, not real latency; the MPI control plane stays up\n")
	}
	if reg != nil {
		if err := writeMetrics(reg, *metricsFile); err != nil {
			fatal(err)
		}
	}
}

func writeMetrics(reg *metrics.Registry, path string) error {
	if path == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseCrash parses -crash rank@call into a fail-stop rule: the rank dies
// after its call-th CCL call.
func parseCrash(spec string) (fault.Rule, error) {
	rankStr, callStr, ok := strings.Cut(spec, "@")
	rank, rerr := count(rankStr)
	call, cerr := count(callStr)
	if !ok || rerr != nil || cerr != nil {
		return fault.Rule{}, fmt.Errorf("bad -crash %q (want rank@call, e.g. 2@10)", spec)
	}
	return fault.Rule{Name: "fail-stop", Crash: true, Ranks: []int{rank}, After: call}, nil
}

// parsePartition parses -partition rank@from[,until] into a rank-scoped
// PartitionRule (Probability 0 = deterministic fire).
func parsePartition(spec string) (fault.PartitionRule, error) {
	bad := func() (fault.PartitionRule, error) {
		return fault.PartitionRule{}, fmt.Errorf("bad -partition %q (want rank@from[,until], e.g. 2@200us or 2@200us,400us)", spec)
	}
	rankStr, window, ok := strings.Cut(spec, "@")
	if !ok {
		return bad()
	}
	rank, err := count(rankStr)
	if err != nil {
		return bad()
	}
	fromStr, untilStr, healed := strings.Cut(window, ",")
	from, err := time.ParseDuration(fromStr)
	if err != nil {
		return bad()
	}
	rule := fault.PartitionRule{Name: "rank-cut", Ranks: []int{rank}, From: from}
	if healed {
		if rule.Until, err = time.ParseDuration(untilStr); err != nil {
			return bad()
		}
	}
	if err := fault.CheckPartitionRule(rule); err != nil {
		return fault.PartitionRule{}, fmt.Errorf("-partition %q: %v", spec, err)
	}
	return rule, nil
}

// count parses a whole spec field as a non-negative decimal integer; any
// other text in the field is an error.
func count(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = fmt.Errorf("negative value %d", n)
	}
	return n, err
}

func us(r omb.Result) float64 { return float64(r.Latency.Nanoseconds()) / 1e3 }

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ombrun: %v\n", err)
	os.Exit(1)
}
