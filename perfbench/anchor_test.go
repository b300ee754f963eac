package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"mpixccl/internal/omb"
)

// The benchmark's virtual latencies are the simulated science the rest of
// the repository pins, so they must agree with the OSU harness of package
// omb and repeat exactly for a seed. A zero budget runs one pass of each
// workload's op stream.

func TestAllreduceLargeMatchesOMB(t *testing.T) {
	res, err := omb.RunCollective(omb.Config{System: "thetagpu", Nodes: 2,
		MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 1, Stack: omb.StackHybrid}, omb.Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res[0].Latency) / float64(time.Microsecond)
	rep, err := runChild(workloads["allreduce-large"], 1, 0, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := quantile(rep.VirtUS, 0.5)
	if got != want {
		t.Errorf("virt_us_p50 = %v, omb.RunCollective = %v", got, want)
	}
	// The committed Fig6MultiNodeCollectives baseline: 568.2 virt-µs/op.
	if r := math.Round(got*10) / 10; r != 568.2 {
		t.Errorf("virt_us_p50 = %v, want 568.2", got)
	}
	if rep.Failed != 0 || rep.Guard != "" {
		t.Errorf("failed = %d, guard = %q", rep.Failed, rep.Guard)
	}
}

func TestVirtualRepeatsAndTracingLeavesItAlone(t *testing.T) {
	w := workloads["mixed-small"]
	var runs [][]float64
	for _, traced := range []bool{false, false, true} {
		rep, err := runChild(w, 7, 0, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || rep.Guard != "" {
			t.Fatalf("traced=%v: failed = %d, guard = %q", traced, rep.Failed, rep.Guard)
		}
		if len(rep.VirtUS) != mixedPass {
			t.Fatalf("traced=%v: %d virtual latencies, want %d", traced, len(rep.VirtUS), mixedPass)
		}
		runs = append(runs, rep.VirtUS)
	}
	if !slices.Equal(runs[0], runs[1]) {
		t.Error("virtual latencies differ between two untraced runs of one seed")
	}
	if !slices.Equal(runs[0], runs[2]) {
		t.Error("virtual latencies differ between the traced and the untraced run")
	}
}

// spin is the profiled work of TestPackageShares; the benchmark's own
// frames count as the bench layer.
func spin(d time.Duration) (x uint64) {
	for t := time.Now(); time.Since(t) < d; {
		for i := range 1 << 16 {
			x += uint64(i) * x
		}
	}
	return x
}

func TestPackageShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	layers := map[string]float64{}
	if err := packageShares(prof.Bytes(), layers); err != nil {
		t.Fatal(err)
	}
	if layers["bench.host_share"] < 0.5 {
		t.Errorf("bench.host_share = %v, want most of the samples", layers["bench.host_share"])
	}
	var sum float64
	for _, l := range hostLayers {
		sum += layers[l+".host_share"]
	}
	if sum > 1+1e-9 {
		t.Errorf("host shares sum to %v", sum)
	}
	for fn, want := range map[string]string{
		"mpixccl/internal/fabric.(*Fabric).TryTransfer": "fabric",
		"mpixccl/internal/ccl/comp.Search":              "ccl",
		"mpixccl/internal/elem.reduceF32":               "elem",
		"main.(*harness).rank":                          "bench",
		"runtime.memmove":                               "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
