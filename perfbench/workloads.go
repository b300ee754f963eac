package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/dl"
	"mpixccl/internal/mpi"
)

// workload is one seeded input set the benchmark runs. Every workload
// uses the thetagpu preset (8 A100 per node, one rank per GPU), the
// hybrid stack with an automatically chosen backend (NCCL here) and
// float32 payloads.
type workload struct {
	name  string
	nodes int
	// pass is the length of the seeded op stream; the virtual metrics
	// cover the first pass, so they repeat exactly for a seed.
	pass int
	// stepOps names timed ops "step" instead of "op" in the spans.
	stepOps bool
	// table and compile complete core.Options.
	table   *core.TuningTable
	compile bool
	// inputs generates the world's inputs from the seed; rank builds one
	// rank's program over them.
	inputs func(rng *rand.Rand, n int) any
	rank   func(in any, x *core.Comm, h *harness) rankProg
	// guard checks the dispatch mix of the timed ops ("" = as expected).
	guard func(d core.Stats) string
	// direct, when set, names the op the ccl.direct_host_ms_p50 probe
	// calls straight on the CCL communicator.
	direct *directSpec
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fallbacks(s core.Stats) int {
	f := s.Fallbacks
	return f.Datatype + f.Op + f.Device + f.HostBuffer + f.Error
}

// guardAllCCL requires every timed op on the CCL path and no fallback.
func guardAllCCL(d core.Stats) string {
	if d.MPIOps != 0 || d.CCLOps == 0 || fallbacks(d) != 0 {
		return fmt.Sprintf("want every op on the CCL path: ccl=%d mpi=%d fallbacks=%d",
			d.CCLOps, d.MPIOps, fallbacks(d))
	}
	return ""
}

func init() {
	register(&workload{
		name: "allreduce-large", nodes: 2, pass: 1,
		inputs: newAllreduceInputs,
		rank:   newAllreduceRank,
		guard:  guardAllCCL,
		direct: &directSpec{op: "allreduce", count: allreduceCount},
	})
	register(&workload{
		name: "mixed-small", nodes: 2, pass: mixedPass,
		inputs: newMixedInputs,
		rank:   newMixedRank,
		guard: func(d core.Stats) string {
			if d.CCLOps == 0 || d.MPIOps == 0 || fallbacks(d) != 0 {
				return fmt.Sprintf("want both paths and no fallback: ccl=%d mpi=%d fallbacks=%d",
					d.CCLOps, d.MPIOps, fallbacks(d))
			}
			return ""
		},
	})
	register(&workload{
		name: "alltoall-compiled", nodes: 4, pass: 1, compile: true,
		inputs: newAlltoallInputs,
		rank:   newAlltoallRank,
		guard:  guardAllCCL,
		direct: &directSpec{op: "alltoall", count: alltoallCount},
	})
	register(&workload{
		name: "train-persistent", nodes: 2, pass: 1, stepOps: true,
		table:  core.HierarchicalTableFor("thetagpu", core.NCCL, true, 0),
		inputs: newTrainInputs,
		rank:   newTrainRank,
		// Buckets below the table's crossover are MPI-bound handles by
		// design, so only fallbacks are an error here.
		guard: func(d core.Stats) string {
			if fallbacks(d) != 0 {
				return fmt.Sprintf("want no fallback: fallbacks=%d", fallbacks(d))
			}
			return ""
		},
	})
}

// ---- allreduce-large: one-shot 4 MiB sum, built-in table (flat ring).

const allreduceCount = 1 << 20 // float32 elements: 4 MiB per rank

type allreduceInputs struct {
	pool   []byte
	offs   []int
	expect []byte
}

func newAllreduceInputs(rng *rand.Rand, n int) any {
	in := &allreduceInputs{pool: newPool(rng, 2*allreduceCount)}
	in.offs = offsets(rng, n, allreduceCount)
	in.expect = sumWindows(in.pool, in.offs, allreduceCount)
	return in
}

type allreduceRank struct {
	in         *allreduceInputs
	x          *core.Comm
	h          *harness
	send, recv *device.Buffer
}

func newAllreduceRank(in any, x *core.Comm, h *harness) rankProg {
	return &allreduceRank{in: in.(*allreduceInputs), x: x, h: h}
}

func (a *allreduceRank) setup() {
	dev := a.x.Device()
	a.send, a.recv = dev.MustMalloc(4*allreduceCount), dev.MustMalloc(4*allreduceCount)
	off := a.in.offs[a.x.Rank()]
	copy(a.send.Bytes(), a.in.pool[4*off:])
	a.h.enter("comm.init")
	a.prepare(-1)
	if a.op(-1) != nil || !a.check(-1) {
		panic("allreduce-large: warm-up op failed")
	}
	a.h.leave("comm.init")
}

func (a *allreduceRank) prepare(int) { clear(a.recv.Bytes()) }

func (a *allreduceRank) op(int) error {
	a.x.Allreduce(a.send, a.recv, allreduceCount, mpi.Float32, mpi.OpSum)
	return a.x.Failure()
}

func (a *allreduceRank) check(int) bool { return bytes.Equal(a.recv.Bytes(), a.in.expect) }

func (a *allreduceRank) desc(int) (string, int64) { return "allreduce", 4 * allreduceCount }

func (a *allreduceRank) teardown() {}

// ---- alltoall-compiled: 256 KiB blocks on 32 ranks, compiler on.

const alltoallCount = 64 << 10 // float32 elements: 256 KiB per block

type alltoallInputs struct {
	pool []byte
	offs []int
}

func newAlltoallInputs(rng *rand.Rand, n int) any {
	in := &alltoallInputs{pool: newPool(rng, 2*n*alltoallCount)}
	in.offs = offsets(rng, n, n*alltoallCount)
	return in
}

type alltoallRank struct {
	in         *alltoallInputs
	x          *core.Comm
	h          *harness
	send, recv *device.Buffer
}

func newAlltoallRank(in any, x *core.Comm, h *harness) rankProg {
	return &alltoallRank{in: in.(*alltoallInputs), x: x, h: h}
}

func (a *alltoallRank) setup() {
	n := int64(a.x.Size())
	dev := a.x.Device()
	a.send, a.recv = dev.MustMalloc(4*alltoallCount*n), dev.MustMalloc(4*alltoallCount*n)
	copy(a.send.Bytes(), a.in.pool[4*a.in.offs[a.x.Rank()]:])
	// The first op creates the CCL communicator and runs the compiler's
	// plan search; both are set-up costs.
	a.h.enter("comm.init")
	a.prepare(-1)
	if a.op(-1) != nil || !a.check(-1) {
		panic("alltoall-compiled: warm-up op failed")
	}
	a.h.leave("comm.init")
}

func (a *alltoallRank) prepare(int) { clear(a.recv.Bytes()) }

func (a *alltoallRank) op(int) error {
	a.x.Alltoall(a.send, alltoallCount, mpi.Float32, a.recv)
	return a.x.Failure()
}

// check: block j of this rank's result is block r of rank j's input.
func (a *alltoallRank) check(int) bool {
	r, blk := a.x.Rank(), 4*alltoallCount
	got := a.recv.Bytes()
	for j, off := range a.in.offs {
		want := a.in.pool[4*off+r*blk : 4*off+(r+1)*blk]
		if !bytes.Equal(got[j*blk:(j+1)*blk], want) {
			return false
		}
	}
	return true
}

func (a *alltoallRank) desc(int) (string, int64) { return "alltoall", 4 * alltoallCount }

func (a *alltoallRank) teardown() {}

// ---- mixed-small: a seeded stream of seven collectives at 4 B - 64 KiB.

const (
	mixedSteps    = 4                   // sizes per power-of-two octave
	mixedPass     = 7 * 14 * mixedSteps // kinds x sizes from 4 B to 64 KiB
	mixedMaxCount = 16 << 10            // float32 elements: 64 KiB
)

var mixedKinds = []string{"allreduce", "bcast", "reduce", "allgather", "alltoall", "gather", "scatter"}

type mixedOp struct {
	kind  string
	count int
	root  int
}

type mixedInputs struct {
	pool   []byte
	offs   []int
	stream []mixedOp
	warm   []mixedOp
}

func newMixedInputs(rng *rand.Rand, n int) any {
	in := &mixedInputs{pool: newPool(rng, 2*n*mixedMaxCount)}
	in.offs = offsets(rng, n, n*mixedMaxCount)
	// Log-uniform payloads from 4 B to 64 KiB on a fixed grid: every kind
	// runs once at each quarter-octave size, with roots taking turns, in
	// seeded order. The grid keeps the size mix, and with it the path mix
	// (the built-in table's 4-32 KiB crossovers sit on octave edges) and
	// the virtual latency distribution, the same for every seed, so the
	// seed-to-seed spread of the metrics is the program's, not the draw's.
	for _, kind := range mixedKinds {
		for q := 2 * mixedSteps; q < 16*mixedSteps; q++ {
			bytes := math.Exp2(float64(q) / mixedSteps)
			in.stream = append(in.stream, mixedOp{kind: kind, count: max(1, int(bytes/4)), root: q % n})
		}
	}
	rng.Shuffle(len(in.stream), func(i, j int) { in.stream[i], in.stream[j] = in.stream[j], in.stream[i] })
	// Warm-up: every kind once at each end of the size range, so both
	// paths' lazy set-up is paid before timing.
	for _, k := range mixedKinds {
		in.warm = append(in.warm, mixedOp{k, mixedMaxCount, 0}, mixedOp{k, 1, 0})
	}
	return in
}

type mixedRank struct {
	in         *mixedInputs
	x          *core.Comm
	h          *harness
	send, recv *device.Buffer
}

func newMixedRank(in any, x *core.Comm, h *harness) rankProg {
	return &mixedRank{in: in.(*mixedInputs), x: x, h: h}
}

// at returns op i of the stream; negative i index the warm-up ops.
func (m *mixedRank) at(i int) mixedOp {
	if i < 0 {
		return m.in.warm[-i-1]
	}
	return m.in.stream[i%mixedPass]
}

// win returns rank r's input window.
func (m *mixedRank) win(r int) []byte { return m.in.pool[4*m.in.offs[r]:] }

func (m *mixedRank) setup() {
	n := int64(m.x.Size())
	dev := m.x.Device()
	m.send, m.recv = dev.MustMalloc(4*mixedMaxCount*n), dev.MustMalloc(4*mixedMaxCount*n)
	copy(m.send.Bytes(), m.win(m.x.Rank()))
	m.h.enter("comm.init")
	for i := range m.in.warm {
		m.prepare(-i - 1)
		if m.op(-i-1) != nil || !m.check(-i-1) {
			panic(fmt.Sprintf("mixed-small: warm-up %s failed", m.at(-i-1).kind))
		}
	}
	m.h.leave("comm.init")
}

func (m *mixedRank) prepare(i int) {
	o := m.at(i)
	clear(m.recv.Bytes())
	if o.kind == "bcast" && m.x.Rank() == o.root {
		copy(m.recv.Bytes()[:4*o.count], m.win(o.root))
	}
}

func (m *mixedRank) op(i int) error {
	o := m.at(i)
	c, n := int64(o.count), int64(m.x.Size())
	send, recv := m.send, m.recv
	switch o.kind {
	case "allreduce":
		m.x.Allreduce(send.Slice(0, 4*c), recv.Slice(0, 4*c), o.count, mpi.Float32, mpi.OpSum)
	case "reduce":
		m.x.Reduce(send.Slice(0, 4*c), recv.Slice(0, 4*c), o.count, mpi.Float32, mpi.OpSum, o.root)
	case "bcast":
		m.x.Bcast(recv.Slice(0, 4*c), o.count, mpi.Float32, o.root)
	case "allgather":
		m.x.Allgather(send.Slice(0, 4*c), o.count, mpi.Float32, recv.Slice(0, 4*c*n))
	case "alltoall":
		m.x.Alltoall(send.Slice(0, 4*c*n), o.count, mpi.Float32, recv.Slice(0, 4*c*n))
	case "gather":
		m.x.Gather(send.Slice(0, 4*c), o.count, mpi.Float32, recv.Slice(0, 4*c*n), o.root)
	case "scatter":
		m.x.Scatter(send.Slice(0, 4*c*n), o.count, mpi.Float32, recv.Slice(0, 4*c), o.root)
	}
	return m.x.Failure()
}

func (m *mixedRank) check(i int) bool {
	o := m.at(i)
	r, n, c := m.x.Rank(), m.x.Size(), o.count
	blk := 4 * c
	got := m.recv.Bytes()
	switch o.kind {
	case "allreduce":
		return bytes.Equal(got[:blk], sumWindows(m.in.pool, m.in.offs, c))
	case "reduce":
		return r != o.root || bytes.Equal(got[:blk], sumWindows(m.in.pool, m.in.offs, c))
	case "bcast":
		return bytes.Equal(got[:blk], m.win(o.root)[:blk])
	case "scatter":
		return bytes.Equal(got[:blk], m.win(o.root)[r*blk:(r+1)*blk])
	case "gather":
		if r != o.root {
			return true
		}
		fallthrough
	case "allgather":
		for j := range n {
			if !bytes.Equal(got[j*blk:(j+1)*blk], m.win(j)[:blk]) {
				return false
			}
		}
		return true
	case "alltoall":
		for j := range n {
			if !bytes.Equal(got[j*blk:(j+1)*blk], m.win(j)[r*blk:(r+1)*blk]) {
				return false
			}
		}
		return true
	}
	return false
}

func (m *mixedRank) desc(i int) (string, int64) {
	o := m.at(i)
	return o.kind, 4 * int64(o.count)
}

func (m *mixedRank) teardown() {}

// ---- train-persistent: ResNet-50 data parallelism on persistent
// partitioned allreduce handles, one per 2 MiB fusion bucket. The loop
// mirrors the persistent training loop of package dl through core's
// public Start/Pready/Wait/Free.

const (
	trainFusionBytes = 2 << 20
	trainPartitions  = 4
	trainBatch       = 32
	trainImgPerSec   = 855                    // A100 fp32 ResNet-50, as package dl models it
	trainCoord       = 240 * time.Microsecond // Horovod's per-op negotiation, paid once per handle at Init
	trainPoolElems   = 1 << 20
)

type trainInputs struct {
	buckets []dl.Bucket
	total   int64
	pool    []byte
	offs    []int  // per rank, in bytes
	expect  []byte // one period (trainPoolElems elements) of the bucket sums
}

func newTrainInputs(rng *rand.Rand, n int) any {
	in := &trainInputs{
		buckets: dl.FuseBuckets(dl.ResNet50().Tensors, trainFusionBytes),
		pool:    newPool(rng, trainPoolElems),
	}
	for _, b := range in.buckets {
		in.total += b.Bytes
	}
	// Rank r's gradient element i is pool[(offs[r]+i) mod len], so the
	// expected sum repeats with the pool's period.
	elemOffs := offsets(rng, n, trainPoolElems)
	doubled := append(append([]byte(nil), in.pool...), in.pool...)
	in.expect = sumWindows(doubled, elemOffs, trainPoolElems)
	for _, o := range elemOffs {
		in.offs = append(in.offs, 4*o)
	}
	return in
}

type trainRank struct {
	in      *trainInputs
	x       *core.Comm
	h       *harness
	arena   *device.Buffer
	handles []*core.PersistentOp
	slices  int
	compute time.Duration
}

func newTrainRank(in any, x *core.Comm, h *harness) rankProg {
	return &trainRank{in: in.(*trainInputs), x: x, h: h,
		compute: trainBatch * time.Second / trainImgPerSec}
}

func (t *trainRank) setup() {
	p := t.x.MPI().Proc()
	t.arena = t.x.Device().MustMalloc(t.in.total)
	t.prepare(-1)
	t.h.enter("persistent.init")
	var off int64
	for _, b := range t.in.buckets {
		p.Sleep(trainCoord)
		buf := t.arena.Slice(off, b.Bytes)
		po, err := t.x.AllReduceInitPartitioned(buf, buf, int(b.Bytes/4), mpi.Float32, mpi.OpSum, trainPartitions)
		if err != nil {
			panic(fmt.Sprintf("train-persistent: init: %v", err))
		}
		t.handles = append(t.handles, po)
		t.slices += po.Parts()
		off += b.Bytes
	}
	t.h.leave("persistent.init")
	t.h.enter("step.warmup")
	if t.op(-1) != nil || !t.check(-1) {
		panic("train-persistent: warm-up step failed")
	}
	t.h.leave("step.warmup")
}

// prepare is backprop's output: every step overwrites the gradients the
// in-place allreduce summed.
func (t *trainRank) prepare(int) { tile(t.arena.Bytes(), t.in.pool, t.in.offs[t.x.Rank()]) }

// op is one training step: arm every handle, mark partitions ready as
// the modeled compute produces them, then drain in production order.
func (t *trainRank) op(int) error {
	p := t.x.MPI().Proc()
	for _, po := range t.handles {
		if err := po.Start(); err != nil {
			return err
		}
	}
	var done time.Duration
	idx := 0
	for _, po := range t.handles {
		for k := range po.Parts() {
			idx++
			target := t.compute * time.Duration(idx) / time.Duration(t.slices)
			p.Sleep(target - done)
			done = target
			po.Pready(k)
		}
	}
	for _, po := range t.handles {
		if err := po.Wait(); err != nil {
			return err
		}
	}
	return t.x.Failure()
}

// check compares every bucket with the expected sums, one pool period at
// a time.
func (t *trainRank) check(int) bool {
	got := t.arena.Bytes()
	for len(got) > 0 {
		n := min(len(got), len(t.in.expect))
		if !bytes.Equal(got[:n], t.in.expect[:n]) {
			return false
		}
		got = got[n:]
	}
	return true
}

func (t *trainRank) desc(int) (string, int64) { return "train-step", t.in.total }

func (t *trainRank) teardown() {
	for _, po := range t.handles {
		if err := po.Free(); err != nil {
			panic(fmt.Sprintf("train-persistent: free: %v", err))
		}
	}
}
