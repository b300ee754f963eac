// Command xcclbench regenerates the paper's tables and figures from the
// simulated substrate.
//
// Usage:
//
//	xcclbench -exp fig5            # one experiment, quick scale
//	xcclbench -exp all -scale full # the paper's full configurations
//	xcclbench -exp all -parallel 1 # force a serial run
//	xcclbench -exp fig6 -hier      # hierarchical collectives on the hybrid series
//	xcclbench -exp fig6 -compile   # compiled plans for the synthesized collectives
//	xcclbench -scale ranks=4096,shards=4  # parallel-engine scaling sweep
//	xcclbench -list                # enumerate experiment ids
//
// Experiment ids follow the paper: table1, fig1a, fig1b, fig3, fig4, fig5,
// fig6, fig7, fig8, fig9, fig10.
//
// Independent experiments run concurrently across a worker pool (one worker
// per CPU by default; bound it with -parallel N). Each experiment owns its
// own simulation kernel, so virtual-time results are identical to a serial
// run and are printed in paper order regardless of completion order.
//
// With -metrics <file>, runtime counters and latency histograms gathered
// across every experiment run (dispatch paths, fallbacks, tuning-table
// hits, CCL launches, MPI protocol choices) are written to <file> in
// Prometheus text format; "-" writes to stdout.
//
// With -cpuprofile/-memprofile <file>, pprof profiles of the run are
// written for use with `go tool pprof`. Experiment goroutines are tagged
// with an {experiment: id} pprof label, so per-experiment CPU cost can be
// split out with pprof's tagfocus/tagshow options.
//
// With -crash rank@step, the "elastic" exhibit fail-stops that world rank
// during that training step instead of its default injection:
//
//	xcclbench -exp elastic -crash 3@2
//
// With -partition cut@heal, the "partition" exhibit opens its network cut
// during training step <cut> and heals it before step <heal> (heal 0 makes
// the cut permanent):
//
//	xcclbench -exp partition -partition 2@4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mpixccl/internal/experiments"
	"mpixccl/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	scaleFlag := flag.String("scale", "quick",
		"quick or full (paper-size node counts and sweeps); or ranks=N[,shards=M] to run the scaling sweep instead of exhibits")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", 0, "max experiments in flight (0 = one per CPU, 1 = serial)")
	metricsFile := flag.String("metrics", "",
		"write accumulated runtime metrics to this file in Prometheus text format ('-' for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	crash := flag.String("crash", "",
		"override the elastic exhibit's fail-stop injection as rank@step (e.g. 3@2)")
	hier := flag.Bool("hier", false,
		"run the hybrid-xCCL series with topology-aware hierarchical collectives (multi-node exhibits)")
	persistent := flag.Bool("persistent", false,
		"run the hybrid-xCCL series of the Horovod exhibits (fig7-fig10) on persistent partitioned allreduce handles")
	compile := flag.Bool("compile", false,
		"run the xCCL series with the collective compiler: cost-model-compiled plans for alltoall(v)/gather/scatter instead of the group send-recv loop")
	chaos := flag.String("chaos", "",
		"run the chaos soak instead of exhibits, as seed=N[,runs=M] (e.g. seed=7,runs=4)")
	chaosDeadline := flag.Duration("chaos-deadline", 0,
		"wall-clock budget per chaos schedule before the soak fails loudly (0 = default 2m)")
	partition := flag.String("partition", "",
		"override the partition exhibit's cut window as cut@heal training steps (heal 0 = permanent, e.g. 2@4)")
	flag.Parse()

	experiments.SetHierarchical(*hier)
	experiments.SetPersistent(*persistent)
	experiments.SetCompile(*compile)

	if *crash != "" {
		var rank, step int
		if _, err := fmt.Sscanf(*crash, "%d@%d", &rank, &step); err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: bad -crash %q (want rank@step, e.g. 3@2)\n", *crash)
			os.Exit(2)
		}
		experiments.SetElasticCrash(rank, step)
	}
	if *partition != "" {
		var cut, heal int
		if n, err := fmt.Sscanf(*partition, "%d@%d", &cut, &heal); err != nil && n < 1 {
			fmt.Fprintf(os.Stderr, "xcclbench: bad -partition %q (want cut@heal steps, e.g. 2@4)\n", *partition)
			os.Exit(2)
		}
		experiments.SetPartition(cut, heal)
	}
	experiments.SetChaosDeadline(*chaosDeadline)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *chaos != "" {
		var seed uint64
		runs := 0
		if n, err := fmt.Sscanf(*chaos, "seed=%d,runs=%d", &seed, &runs); err != nil && n < 1 {
			fmt.Fprintf(os.Stderr, "xcclbench: bad -chaos %q (want seed=N[,runs=M])\n", *chaos)
			os.Exit(2)
		}
		var reg *metrics.Registry
		if *metricsFile != "" {
			reg = metrics.NewRegistry()
		}
		out, err := experiments.RunChaos(seed, runs, reg)
		fmt.Print(out)
		if reg != nil {
			if werr := writeMetrics(reg, *metricsFile); werr != nil {
				fmt.Fprintf(os.Stderr, "xcclbench: %v\n", werr)
				os.Exit(1)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if strings.HasPrefix(*scaleFlag, "ranks=") {
		ranks, maxShards, err := parseScaleSpec(*scaleFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			os.Exit(2)
		}
		if err := runScaleSweep(ranks, maxShards); err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	scale := experiments.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "xcclbench: unknown scale %q (want quick, full, or ranks=N[,shards=M])\n", *scaleFlag)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	var reg *metrics.Registry
	if *metricsFile != "" {
		reg = metrics.NewRegistry()
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	results := experiments.RunAll(ids, scale, reg, *parallel)
	failed := false
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %s: %v\n", r.ID, r.Err)
			failed = true
			continue
		}
		fmt.Print(r.Output)
		fmt.Printf("(%s regenerated in %v wall time)\n\n", r.ID, r.Wall.Round(time.Millisecond))
	}
	if len(ids) > 1 {
		fmt.Printf("(%d experiments in %v total wall time)\n", len(ids), time.Since(start).Round(time.Millisecond))
	}
	if reg != nil {
		if err := writeMetrics(reg, *metricsFile); err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			failed = true
		}
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			failed = true
		}
	}
	if failed {
		// Flush the CPU profile before exiting: os.Exit skips defers.
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		os.Exit(1)
	}
}

// parseScaleSpec parses -scale ranks=N[,shards=M]; both counts must be
// positive (shards defaults to 1).
func parseScaleSpec(spec string) (ranks, maxShards int, err error) {
	maxShards = 1
	if n, serr := fmt.Sscanf(spec, "ranks=%d,shards=%d", &ranks, &maxShards); serr != nil && n < 1 {
		return 0, 0, fmt.Errorf("bad -scale %q (want ranks=N[,shards=M])", spec)
	}
	if ranks < 1 || maxShards < 1 {
		return 0, 0, fmt.Errorf("bad -scale %q: ranks and shards must be at least 1", spec)
	}
	return ranks, maxShards, nil
}

// runScaleSweep runs the 4096-rank-class hierarchical AllReduce scaling
// model once per shard count (powers of two up to maxShards, plus
// maxShards itself) and prints one wall/virt table. Virtual times must be
// identical down the column; wall time is where shards pay off on
// multi-core hosts.
func runScaleSweep(ranks, maxShards int) error {
	var counts []int
	for s := 1; s <= maxShards; s *= 2 {
		counts = append(counts, s)
	}
	if last := counts[len(counts)-1]; last != maxShards {
		counts = append(counts, maxShards)
	}
	var results []experiments.ScaleResult
	for _, s := range counts {
		r, err := experiments.RunScale(experiments.ScaleConfig{Ranks: ranks, Shards: s})
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Print(experiments.FormatScaleTable(results))
	return nil
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

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live-heap accounting before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
