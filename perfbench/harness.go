package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// rankProg is one rank's share of a workload. The harness calls setup
// once, then for each timed op i: prepare(i) outside the timed window,
// op(i) inside it, and check(i) outside it again.
type rankProg interface {
	// setup allocates, loads the inputs and runs the warm-up ops that
	// pay the lazy costs (CCL communicator creation, plan search,
	// persistent Init) before the first timed op.
	setup()
	// prepare resets the outputs of op i and loads its inputs.
	prepare(i int)
	// op runs timed op i and returns the communicator failure, if any.
	op(i int) error
	// check reports whether this rank's outputs of op i are exact.
	check(i int) bool
	// desc names op i's kind and its per-rank payload bytes.
	desc(i int) (kind string, bytes int64)
	// teardown releases what setup built (persistent handles).
	teardown()
}

// opRec is what the harness records about one timed op across ranks.
type opRec struct {
	t0, t1  time.Time     // host time: first rank in, last rank out
	ex0     time.Duration // harness.excluded at t0
	host    time.Duration // t1 - t0 less the excluded sections inside
	arrived int           // ranks that finished the op
	virt    time.Duration // virtual latency: slowest rank's start to end
	failed  bool
	s0      core.Stats   // traced: dispatch counts at t0, for the path tag
	verify  [2]time.Time // traced: first check start, last load end
	span    int          // traced: index of the op's span
}

// harness is the state all ranks of one world share. The simulation runs
// one rank's goroutine at a time and hands control over through channels,
// so the ranks' accesses to it are ordered without locks.
type harness struct {
	n      int
	pass   int
	budget time.Duration
	rt     *core.Runtime
	reg    *metrics.Registry // traced worlds only
	spans  *spanLog          // traced worlds only
	prof   bytes.Buffer      // CPU profile of the timed phase, traced worlds only

	loopStart  time.Time
	loopEnd    time.Time
	vstart     sim.Time      // virtual time the first timed op started
	timed      time.Duration // loop time minus the excluded sections
	excluded   time.Duration // running total of prepare and check time
	excluded0  time.Duration // excluded at the loop start
	stop       []bool        // per loop iteration: the loop ends here
	ops        []opRec
	sections   map[string]*section
	stats0     core.Stats // at the first timed op
	statsEnd   core.Stats // after the last timed op
	reg0       map[string]float64
	regEnd     map[string]float64
	go0, goEnd goSample
	onSetup    func() // runs once, when every rank has finished setup
	kindOf     string // span name of a timed op: "op", or "step" for training
}

// section aggregates a stretch every rank executes (a warm-up op, the
// persistent Inits) into one host interval: first rank in, last rank out.
type section struct {
	start, end time.Time
	out        int // ranks that left
	span       int
}

func (h *harness) enter(name string) {
	s := h.sections[name]
	if s == nil {
		s = &section{start: time.Now(), span: h.spans.open(name, -1, nil)}
		h.sections[name] = s
	}
}

func (h *harness) leave(name string) {
	s := h.sections[name]
	s.out++
	if s.out == h.n {
		s.end = time.Now()
		h.spans.close(s.span)
	}
}

// sectionDur is a completed section's host duration (0 if it never ran).
func (h *harness) sectionDur(name string) time.Duration {
	if s := h.sections[name]; s != nil && s.out == h.n {
		return s.end.Sub(s.start)
	}
	return 0
}

// decide is called by every rank at the top of loop iteration i; the
// first caller decides whether the loop ends there, so all ranks agree.
// The loop ends once the budget is spent and at least one full pass of
// the workload's op stream is done (virtual metrics cover that pass).
func (h *harness) decide(i int) bool {
	if i < len(h.stop) {
		return h.stop[i]
	}
	now := time.Now()
	if i == 0 {
		if h.onSetup != nil {
			h.onSetup()
		}
		h.loopStart = now
		h.excluded0 = h.excluded
		h.stats0 = h.rt.Stats()
		h.go0 = readGo()
		if h.reg != nil {
			h.reg0 = snapshot(h.reg)
			if err := pprof.StartCPUProfile(&h.prof); err != nil {
				panic(fmt.Sprintf("cpu profile: %v", err))
			}
		}
	}
	stop := i >= h.pass && now.Sub(h.loopStart) >= h.budget
	if stop {
		h.loopEnd = now
		h.timed = now.Sub(h.loopStart) - (h.excluded - h.excluded0)
		h.statsEnd = h.rt.Stats()
		h.goEnd = readGo()
		if h.reg != nil {
			pprof.StopCPUProfile()
			h.regEnd = snapshot(h.reg)
		}
	}
	h.stop = append(h.stop, stop)
	return stop
}

// exclude runs f outside the timed phase: its host time is subtracted
// from the loop time and from any op window it falls in, and in traced
// worlds its CPU samples carry the label phase=verify, which the
// per-package split leaves out. id is the timed op the section follows
// (-1 before the first); traced worlds record one verify span per op,
// from the first rank checking its outputs to the last rank loading the
// next op's inputs.
func (h *harness) exclude(id int, f func()) {
	t := time.Now()
	if h.reg != nil {
		pprof.Do(context.Background(), pprof.Labels("phase", "verify"), func(context.Context) { f() })
	} else {
		f()
	}
	end := time.Now()
	h.excluded += end.Sub(t)
	if h.spans != nil && id >= 0 {
		v := &h.ops[id].verify
		if v[0].IsZero() {
			v[0] = t
		}
		v[1] = end
	}
}

func (h *harness) opStart(i int, now sim.Time) {
	if i == len(h.ops) {
		h.ops = append(h.ops, opRec{t0: time.Now(), ex0: h.excluded})
		if h.spans != nil {
			h.ops[i].s0 = h.rt.Stats()
		}
		if i == 0 {
			h.vstart = now
		}
	}
}

func (h *harness) opEnd(i int, virt time.Duration, failed bool, prog rankProg) {
	r := &h.ops[i]
	r.arrived++
	r.virt = max(r.virt, virt)
	r.failed = r.failed || failed
	if r.arrived < h.n {
		return
	}
	r.t1 = time.Now()
	r.host = r.t1.Sub(r.t0) - (h.excluded - r.ex0)
	if h.spans != nil {
		s := h.rt.Stats()
		path := "mixed"
		switch {
		case s.MPIOps == r.s0.MPIOps:
			path = "ccl"
		case s.CCLOps == r.s0.CCLOps:
			path = "mpi"
		}
		kind, b := prog.desc(i)
		r.span = h.spans.add(h.kindOf, i, -1, r.t0, r.t1, map[string]string{
			"kind": kind, "bytes": fmt.Sprint(b), "path": path})
	}
}

// rank is one rank's whole life in the world: setup, the timed loop, and
// teardown. Each timed op follows an MPI barrier entered as the rank
// finishes its previous op, the way the OSU loops of package omb time
// one, so virtual latencies compare with omb.RunCollective. The barrier
// also orders the ranks on the host: no rank starts op i before every
// rank has finished op i-1 and its check.
func (h *harness) rank(x *core.Comm, prog rankProg) {
	p := x.MPI().Proc()
	prog.setup()
	for i := 0; ; i++ {
		h.exclude(i-1, func() { prog.prepare(i) })
		h.barrier(x)
		if h.decide(i) {
			break
		}
		vs := p.Now()
		h.opStart(i, vs)
		err := prog.op(i)
		h.opEnd(i, p.Now()-vs, err != nil || x.Failure() != nil, prog)
		h.exclude(i, func() {
			if !prog.check(i) {
				h.ops[i].failed = true
			}
		})
	}
	prog.teardown()
}

// barrier is the MPI barrier ahead of each op. In traced worlds its CPU
// samples carry the label phase=barrier, which the per-package split
// leaves out, and its traffic is subtracted from the registry counts.
func (h *harness) barrier(x *core.Comm) {
	if h.reg != nil {
		pprof.Do(context.Background(), pprof.Labels("phase", "barrier"), func(context.Context) { x.MPI().Barrier() })
		return
	}
	x.MPI().Barrier()
}

// goSample is a reading of the Go runtime's allocation and CPU counters.
type goSample struct {
	allocBytes, gcCPU, totalCPU float64
}

func sumFamilies(snap map[string]float64, names ...string) float64 {
	var v float64
	for key, val := range snap {
		for _, n := range names {
			if key == n || (len(key) > len(n) && key[:len(n)] == n && key[len(n)] == '{') {
				v += val
			}
		}
	}
	return v
}

// snapshot reads every series of a registry as "name{labels}" -> value.
func snapshot(reg *metrics.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(fmt.Sprintf("metrics export: %v", err))
	}
	m, err := metrics.ParseText(buf.Bytes())
	if err != nil {
		panic(fmt.Sprintf("metrics parse: %v", err))
	}
	return m
}

// goroutines reports the live goroutine count after a full collection.
func goroutines() int {
	runtime.GC()
	return runtime.NumGoroutine()
}
