// Command perfbench is the repository's end-to-end benchmark. It builds
// simulated worlds through the public packages only, runs one seeded
// workload, verifies every output outside the timed window, and prints
// each metric by name and unit for both clocks: host time (what the
// simulator costs) and virtual time (what the simulated collective costs).
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// Every world runs in a child process of its own, so the heap and
// goroutines one world leaks never bill the next. With -trace 0 the run
// starts setupReps children and reports the end-to-end metrics; with
// -trace 1 it starts one untraced and one traced child and reports the
// per-layer metrics. The last line of standard output is the JSON result.
// README.md in this directory documents the metrics and workloads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupReps is how many worlds an untraced run builds: setup_s is their
// median, and the measured window is split evenly between them.
const setupReps = 5

// runDeadline bounds a whole run, children included.
const runDeadline = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 10, "host seconds of measurement in this run")
		traced  = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span and profile files")
		child   = flag.String("child", "", "run one world in this process (plain or traced) and print its report")
		budget  = flag.Duration("budget", 0, "measured window of a -child run")
	)
	flag.Parse()
	// The simulation runs one rank's goroutine at a time; on one P the
	// hand-offs between them stay on one thread instead of waking another
	// core, which made op host times both lower and far steadier.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *child != "" {
		rep, err := runChild(w, *seed, *budget, *child == "traced", *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	window := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *traced == 1 {
		res, err = tracedRun(ctx, w, *seed, window, *out)
	} else {
		res, err = measuredRun(ctx, w, *seed, window, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spawn runs one world in a child process and decodes its report.
func spawn(ctx context.Context, w *workload, seed int64, budget time.Duration, mode, out string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", w.name,
		"-seed", fmt.Sprint(seed), "-budget", budget.String(), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	rep := new(report)
	if err := json.Unmarshal(stdout.Bytes(), rep); err != nil {
		return nil, fmt.Errorf("%s child report: %w", mode, err)
	}
	return rep, nil
}

// measuredRun builds setupReps worlds, each measured for an equal share
// of the window, and reports the end-to-end metrics.
func measuredRun(ctx context.Context, w *workload, seed int64, window time.Duration, out string) (result, error) {
	var reps []*report
	for range setupReps {
		rep, err := spawn(ctx, w, seed, window/setupReps, "plain", out)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, rep)
	}
	res := tally(w, reps)
	var setup, peak, retained, hostMS []float64
	var ops int
	var timed float64
	for _, r := range reps {
		setup = append(setup, r.SetupS)
		peak = append(peak, r.HeapPeakMB)
		retained = append(retained, r.HeapRetainedMB)
		hostMS = append(hostMS, r.OpHostMS...)
		ops += len(r.OpHostMS)
		timed += r.TimedS
	}
	res.Metrics = map[string]metric{
		"setup_s":          {quantile(setup, 0.5), "s"},
		"ops_per_s":        {float64(ops) / timed, "ops/s"},
		"op_host_ms_p50":   {quantile(hostMS, 0.5), "ms"},
		"op_host_ms_p90":   {quantile(hostMS, 0.9), "ms"},
		"virt_us_p50":      {quantile(reps[0].VirtUS, 0.5), "virt_us"},
		"heap_peak_mb":     {quantile(peak, 0.5), "MB"},
		"heap_retained_mb": {quantile(retained, 0.5), "MB"},
		"ops_ok_ratio":     {1 - float64(res.Failed)/float64(res.Attempted), "ratio"},
	}
	return res, nil
}

// tracedRun measures half the window untraced and half traced, and
// reports the per-layer metrics of the traced world; the difference in
// throughput between the two is the tracing overhead.
func tracedRun(ctx context.Context, w *workload, seed int64, window time.Duration, out string) (result, error) {
	plain, err := spawn(ctx, w, seed, window/2, "plain", out)
	if err != nil {
		return result{}, err
	}
	traced, err := spawn(ctx, w, seed, window/2, "traced", out)
	if err != nil {
		return result{}, err
	}
	res := tally(w, []*report{plain, traced})
	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{traced.Layers[m.name], m.unit}
	}
	res.Metrics["trace.overhead_pct"] = metric{
		(plain.opsPerS()/traced.opsPerS() - 1) * 100, "%"}
	return res, nil
}

// tally sums attempts and failures over the worlds of one run and decides
// correctness: no failed op, every path-mix guard passed, and identical
// virtual latencies in every world (they all ran the same seed).
func tally(w *workload, reps []*report) result {
	res := result{Correct: true}
	for _, r := range reps {
		res.Attempted += len(r.OpHostMS)
		res.Failed += r.Failed
		if r.Guard != "" {
			fmt.Fprintf(os.Stderr, "perfbench: %s: path-mix guard: %s\n", w.name, r.Guard)
			res.Correct = false
		}
		if !slices.Equal(r.VirtUS, reps[0].VirtUS) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: virtual latencies differ between worlds of one seed\n", w.name)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed\n", w.name, res.Failed, res.Attempted)
		res.Correct = false
	}
	return res
}

// perLayer lists the traced run's metrics, as BENCHMARK.json names them.
var perLayer = []struct{ name, unit string }{
	{"sim.host_share", "ratio"},
	{"sim.goroutines_retained", "count"},
	{"fabric.host_share", "ratio"},
	{"fabric.payload_mb_per_op", "MB/op"},
	{"elem.host_share", "ratio"},
	{"elem.reduce_gb_per_s", "GB/s"},
	{"device.host_share", "ratio"},
	{"device.alloc_mb", "MB"},
	{"ccl.host_share", "ratio"},
	{"ccl.launches_per_op", "launches/op"},
	{"ccl.comm_init_ms", "ms"},
	{"ccl.direct_host_ms_p50", "ms"},
	{"comp.search_ms", "ms"},
	{"comp.residual_pct", "%"},
	{"mpi.host_share", "ratio"},
	{"mpi.sends_per_op", "sends/op"},
	{"mpi.send_kb_per_op", "KB/op"},
	{"core.host_share", "ratio"},
	{"core.ccl_op_share", "ratio"},
	{"core.fallbacks", "count"},
	{"core.persistent_init_s", "s"},
	{"virt.ccl_us_p50", "virt_us"},
	{"virt.mpi_us_p50", "virt_us"},
	{"go.alloc_mb_per_op", "MB/op"},
	{"go.gc_cpu_share", "ratio"},
	{"bench.host_share", "ratio"},
	{"runtime.host_share", "ratio"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
