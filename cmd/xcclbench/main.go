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
//	xcclbench -scale ranks=4096    # 4096-rank scale model
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
	"strconv"
	"strings"
	"time"

	"mpixccl/internal/experiments"
	"mpixccl/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	scaleFlag := flag.String("scale", "quick",
		"quick or full (paper-size node counts and sweeps); or ranks=N to run the scale model instead of exhibits")
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
		v := mustParse(crashSpec, "crash", *crash)
		experiments.SetElasticCrash(v[0], v[1])
	}
	if *partition != "" {
		v := mustParse(partitionSpec, "partition", *partition)
		experiments.SetPartition(v[0], v[1])
	}
	experiments.SetChaosDeadline(*chaosDeadline)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *chaos != "" {
		v := mustParse(chaosSpec, "chaos", *chaos)
		var reg *metrics.Registry
		if *metricsFile != "" {
			reg = metrics.NewRegistry()
		}
		out, err := experiments.RunChaos(uint64(v[0]), v[1], reg)
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
		ranks, err := parseScaleSpec(*scaleFlag)
		if err != nil {
			usage(err)
		}
		r, err := experiments.RunScale(experiments.ScaleConfig{Ranks: ranks})
		if err != nil {
			fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(experiments.FormatScaleTable([]experiments.ScaleResult{r}))
		return
	}
	scale := experiments.Quick
	switch *scaleFlag {
	case "quick":
	case "full":
		scale = experiments.Full
	default:
		usage(fmt.Errorf("unknown scale %q (want quick, full, or ranks=N)", *scaleFlag))
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

// spec is the grammar of one numeric flag value: its fields in order and
// the separator between them. Keyed specs spell each field name=N
// ("seed=7,runs=4"); positional ones give bare numbers ("3@2"). The first
// required fields must be present; the rest are optional and default to 0.
type spec struct {
	sep      string
	fields   []string
	keyed    bool
	required int
}

var (
	scaleSpec     = spec{sep: ",", fields: []string{"ranks"}, keyed: true, required: 1}
	chaosSpec     = spec{sep: ",", fields: []string{"seed", "runs"}, keyed: true, required: 1}
	partitionSpec = spec{sep: "@", fields: []string{"cut", "heal"}, required: 2}
	crashSpec     = spec{sep: "@", fields: []string{"rank", "step"}, required: 2}
)

// parse returns one value per field. Every value must be a non-negative
// decimal; trailing text, unknown or missing keys, and extra fields are
// errors. Range checks beyond that stay with the exhibit the value
// configures.
func (s spec) parse(v string) ([]int, error) {
	parts := strings.Split(v, s.sep)
	if len(parts) < s.required || len(parts) > len(s.fields) {
		return nil, fmt.Errorf("want %s", s)
	}
	vals := make([]int, len(s.fields))
	for i, part := range parts {
		if s.keyed {
			var ok bool
			if part, ok = strings.CutPrefix(part, s.fields[i]+"="); !ok {
				return nil, fmt.Errorf("want %s", s)
			}
		}
		n, err := strconv.ParseUint(part, 10, strconv.IntSize-1)
		if err != nil {
			return nil, fmt.Errorf("%s: want a non-negative integer, got %q", s.fields[i], part)
		}
		vals[i] = int(n)
	}
	return vals, nil
}

// String renders the grammar, e.g. "seed=N[,runs=N]" or "rank@step".
func (s spec) String() string {
	var b strings.Builder
	for i, f := range s.fields {
		if i >= s.required {
			b.WriteByte('[')
		}
		if i > 0 {
			b.WriteString(s.sep)
		}
		if s.keyed {
			f += "=N"
		}
		b.WriteString(f)
	}
	b.WriteString(strings.Repeat("]", len(s.fields)-s.required))
	return b.String()
}

// mustParse parses a flag value or exits with a usage error.
func mustParse(s spec, flagName, v string) []int {
	vals, err := s.parse(v)
	if err != nil {
		usage(fmt.Errorf("bad -%s %q: %v", flagName, v, err))
	}
	return vals
}

// usage reports a bad command line and exits 2, as the flag package does.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "xcclbench: %v\n", err)
	flag.Usage()
	os.Exit(2)
}

// parseScaleSpec parses -scale ranks=N; the model needs at least one rank.
func parseScaleSpec(v string) (int, error) {
	vals, err := scaleSpec.parse(v)
	if err != nil {
		return 0, fmt.Errorf("bad -scale %q: %v", v, err)
	}
	if vals[0] < 1 {
		return 0, fmt.Errorf("bad -scale %q: ranks must be at least 1", v)
	}
	return vals[0], nil
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
