package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/fabric"
	xmetrics "mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
	"mpixccl/internal/trace"
)

// report is what one world (one child process) measured.
type report struct {
	SetupS             float64            `json:"setup_s"`
	TimedS             float64            `json:"timed_s"`
	OpHostMS           []float64          `json:"op_host_ms"`
	VirtUS             []float64          `json:"virt_us"` // first pass of the op stream
	Failed             int                `json:"failed"`
	Guard              string             `json:"guard,omitempty"`
	HeapPeakMB         float64            `json:"heap_peak_mb"`
	HeapRetainedMB     float64            `json:"heap_retained_mb"`
	GoroutinesRetained int                `json:"goroutines_retained"`
	Layers             map[string]float64 `json:"layers,omitempty"`
}

func (r *report) opsPerS() float64 { return float64(len(r.OpHostMS)) / r.TimedS }

const mib = 1 << 20

// runChild builds one world, runs the workload in it for budget, checks
// it, and probes what the world leaves behind once it has returned.
// Traced worlds also record spans, a CPU profile of the timed phase and
// the registry counts, and run the per-layer probes.
func runChild(w *workload, seed int64, budget time.Duration, traced bool, out string) (*report, error) {
	started := time.Now()
	baseGoroutines := goroutines()
	heap := startHeapSampler()
	var spans *spanLog
	if traced {
		spans = newSpanLog(started)
	}
	rep, h, layers, err := runWorld(w, seed, budget, spans, started)
	rep.HeapPeakMB = heap.stop() / mib
	if err != nil {
		return nil, err
	}

	rep.GoroutinesRetained = goroutines() - baseGoroutines
	rep.HeapRetainedMB = heapObjects() / mib
	// Teardown: the handles' Free, the world's return and the collection.
	spans.add("teardown", -1, -1, h.loopEnd, time.Now(), nil)
	if !traced {
		return rep, nil
	}
	layers["sim.goroutines_retained"] = float64(rep.GoroutinesRetained)
	if err := registryLayers(w, h, len(rep.OpHostMS), layers); err != nil {
		return nil, err
	}
	if err := probeLayers(w, layers, rep, spans); err != nil {
		return nil, err
	}
	if err := packageShares(h.prof.Bytes(), layers); err != nil {
		return nil, err
	}
	rep.Layers = layers
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(base+".cpu.pprof", h.prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := spans.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	return rep, nil
}

// runWorld builds the world, runs every rank, and returns the report plus
// the measurements the traced probes need. The world itself is
// unreachable once it returns.
func runWorld(w *workload, seed int64, budget time.Duration, spans *spanLog, started time.Time) (*report, *harness, map[string]float64, error) {
	rep := &report{}
	wb := spans.open("world.build", -1, nil)
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", w.nodes)
	if err != nil {
		return rep, nil, nil, err
	}
	fab := fabric.New(k, sys)
	n := sys.NumDevices()
	job := mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, n)
	opts := core.Options{Backend: core.Auto, Mode: core.Hybrid, Table: w.table, Compile: w.compile}
	var rec *trace.Recorder
	if spans != nil {
		opts.Metrics = xmetrics.NewRegistry()
		rec = trace.New()
		opts.Trace = rec
	}
	rt, err := core.NewRuntime(job, opts)
	if err != nil {
		return rep, nil, nil, err
	}
	spans.close(wb)
	in := w.inputs(rand.New(rand.NewSource(seed)), n)

	h := &harness{
		n: n, pass: w.pass, budget: budget, rt: rt,
		reg: opts.Metrics, spans: spans,
		sections: map[string]*section{}, kindOf: "op",
	}
	if w.stepOps {
		h.kindOf = "step"
	}
	layers := map[string]float64{}
	h.onSetup = func() {
		var alloc int64
		for _, d := range sys.Devices() {
			alloc += d.Allocated()
		}
		layers["device.alloc_mb"] = float64(alloc) / mib
	}
	if err := rt.Run(func(x *core.Comm) { h.rank(x, w.rank(in, x, h)) }); err != nil {
		return rep, nil, nil, err
	}
	if len(h.ops) == 0 {
		return rep, nil, nil, errors.New("no timed op completed")
	}

	rep.SetupS = h.loopStart.Sub(started).Seconds()
	rep.TimedS = h.timed.Seconds()
	for i, o := range h.ops {
		rep.OpHostMS = append(rep.OpHostMS, float64(o.host)/float64(time.Millisecond))
		if i < w.pass {
			rep.VirtUS = append(rep.VirtUS, float64(o.virt)/float64(time.Microsecond))
		}
		if o.failed {
			rep.Failed++
		}
	}
	rep.Guard = w.guard(statsDelta(h.statsEnd, h.stats0))
	if spans != nil {
		tracedLayers(h, rec, layers)
	}
	// Drop every reference into the world before the caller probes what
	// it leaves behind.
	h.rt, h.reg, h.ops, h.onSetup = nil, nil, nil, nil
	return rep, h, layers, nil
}

func statsDelta(b, a core.Stats) core.Stats {
	d := core.Stats{CCLOps: b.CCLOps - a.CCLOps, MPIOps: b.MPIOps - a.MPIOps}
	d.Fallbacks.Datatype = b.Fallbacks.Datatype - a.Fallbacks.Datatype
	d.Fallbacks.Op = b.Fallbacks.Op - a.Fallbacks.Op
	d.Fallbacks.Device = b.Fallbacks.Device - a.Fallbacks.Device
	d.Fallbacks.HostBuffer = b.Fallbacks.HostBuffer - a.Fallbacks.HostBuffer
	d.Fallbacks.Error = b.Fallbacks.Error - a.Fallbacks.Error
	return d
}

// tracedLayers derives the per-layer metrics a traced world yields from
// its registry counts, dispatch statistics, trace records and runtime
// counters over the timed phase.
func tracedLayers(h *harness, rec *trace.Recorder, layers map[string]float64) {
	for i, o := range h.ops {
		if !o.verify[0].IsZero() {
			h.spans.add("verify", i, o.span, o.verify[0], o.verify[1], nil)
		}
	}
	ops := float64(len(h.ops))
	d := statsDelta(h.statsEnd, h.stats0)
	layers["core.ccl_op_share"] = float64(d.CCLOps) / float64(d.CCLOps+d.MPIOps)
	layers["core.fallbacks"] = float64(fallbacks(h.rt.Stats()))
	layers["core.persistent_init_s"] = h.sectionDur("persistent.init").Seconds()
	layers["go.alloc_mb_per_op"] = (h.goEnd.allocBytes - h.go0.allocBytes) / ops / mib
	if cpu := h.goEnd.totalCPU - h.go0.totalCPU; cpu > 0 {
		layers["go.gc_cpu_share"] = (h.goEnd.gcCPU - h.go0.gcCPU) / cpu
	}
	// Virtual latency by path, from the core trace records of timed ops.
	var ccl, mpis []float64
	for _, r := range rec.Records() {
		if r.Event != "" || r.Start < h.vstart {
			continue
		}
		us := float64(r.Duration) / float64(time.Microsecond)
		if r.Path == "ccl" {
			ccl = append(ccl, us)
		} else {
			mpis = append(mpis, us)
		}
	}
	layers["virt.ccl_us_p50"] = quantile(ccl, 0.5)
	layers["virt.mpi_us_p50"] = quantile(mpis, 0.5)
}

// registryLayers derives the per-op registry counts of the timed phase.
// The harness's own MPI barrier, one per timed op, sends too; its traffic
// is measured in a world that runs nothing but one barrier, and
// subtracted.
func registryLayers(w *workload, h *harness, ops int, layers map[string]float64) error {
	sends, sendBytes, err := barrierTraffic(w.nodes)
	if err != nil {
		return err
	}
	delta := func(names ...string) float64 {
		return sumFamilies(h.regEnd, names...) - sumFamilies(h.reg0, names...)
	}
	n := float64(ops)
	mpiBytes := delta("mpi_send_bytes_total") - n*sendBytes
	layers["fabric.payload_mb_per_op"] = (delta("ccl_transfer_bytes_total") + mpiBytes) / n / mib
	layers["ccl.launches_per_op"] = delta("ccl_launches_total") / n
	layers["mpi.sends_per_op"] = (delta("mpi_sends_total") - n*sends) / n
	layers["mpi.send_kb_per_op"] = mpiBytes / n / 1024
	return nil
}

// barrierTraffic returns the sends and bytes one MPI barrier of the
// workload's world shape puts on the registry.
func barrierTraffic(nodes int) (sends, sendBytes float64, err error) {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", nodes)
	if err != nil {
		return 0, 0, err
	}
	job := mpi.NewJobOnSystem(fabric.New(k, sys), mpi.MVAPICHProfile(), sys, sys.NumDevices())
	reg := xmetrics.NewRegistry()
	job.SetMetrics(reg)
	if err := job.Run(func(c *mpi.Comm) { c.Barrier() }); err != nil {
		return 0, 0, err
	}
	snap := snapshot(reg)
	return sumFamilies(snap, "mpi_sends_total"), sumFamilies(snap, "mpi_send_bytes_total"), nil
}

// heapSampler polls the live heap and keeps its peak.
type heapSampler struct {
	mu   sync.Mutex
	peak float64
	quit chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			s.observe()
			select {
			case <-s.quit:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) observe() {
	v := heapObjects()
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// stop ends sampling, waits for the sampler to exit and returns the peak
// in bytes.
func (s *heapSampler) stop() float64 {
	close(s.quit)
	<-s.done
	s.observe()
	return s.peak
}

// heapObjects reads the bytes of heap objects (live and not yet swept).
func heapObjects() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return goSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}
