// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) from the simulated substrate: the Table 1 hardware
// summary, the Fig 1 motivation crossovers, the Fig 3–4 point-to-point
// sweeps, the Fig 5–6 collective grids, and the Fig 7–10 TensorFlow+Horovod
// application results. Each experiment returns a Figure of named series
// that mirrors the paper's plot, formatted as text tables by Format.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/dl"
	"mpixccl/internal/metrics"
	"mpixccl/internal/omb"
	"mpixccl/internal/topology"
)

// Scale selects run sizes: Quick shrinks node counts and size sweeps so the
// whole suite finishes in minutes; Full uses the paper's configurations.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// Point is one measurement: X is message bytes (OMB figures) or batch size
// (application figures); Latency or Value carries the metric.
type Point struct {
	X       int64
	Latency time.Duration
	Value   float64 // bandwidth MB/s or img/s, figure-dependent
}

// Series is one labeled line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a regenerated table/figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string // "bytes" or "batch"
	Metric string // "latency", "MB/s", "img/s"
	Series []Series
	Notes  []string
}

// hierEnabled switches the hybrid/xCCL series onto hierarchical tuning
// tables (off by default so regenerated exhibits match the paper's flat
// schedules byte for byte).
var hierEnabled bool

// SetHierarchical toggles topology-aware hierarchical collectives for the
// hybrid-xCCL series of every figure: multi-node shapes run with
// core.HierarchicalTableFor instead of the builtin default table. Call it
// before Run/RunAll (the xcclbench -hier flag).
func SetHierarchical(on bool) { hierEnabled = on }

// hierTable returns the hierarchical tuning table for a shape, or nil when
// the feature is off or the shape has no inter-node tier to exploit.
func hierTable(system string, backend core.BackendKind, nodes int) *core.TuningTable {
	if !hierEnabled || nodes <= 1 {
		return nil
	}
	return core.HierarchicalTableFor(system, backend, true, 0)
}

// compileEnabled switches the xCCL series of every figure onto the
// collective compiler (off by default so regenerated exhibits match the
// paper's group send-recv synthesized collectives byte for byte).
var compileEnabled bool

// SetCompile toggles the collective compiler for the hybrid/pure-xCCL
// series of every figure: the synthesized collectives (alltoall(v),
// gather, scatter) run cost-model-compiled plans instead of the group
// send-recv loop. Call it before Run/RunAll (the xcclbench -compile flag).
func SetCompile(on bool) { compileEnabled = on }

// persistEnabled switches the Horovod exhibits' xCCL engine onto
// persistent partitioned allreduce handles (off by default so regenerated
// exhibits match the paper's per-call dispatch byte for byte).
var persistEnabled bool

// SetPersistent toggles persistent collectives for the hybrid-xCCL series
// of the training figures (Fig 7–10): gradient buckets ride pre-built
// partitioned handles with per-op negotiation amortized into Init. Call
// it before Run/RunAll (the xcclbench -persistent flag).
func SetPersistent(on bool) { persistEnabled = on }

// sweep returns the OMB size list for the scale.
func sweep(scale Scale) (min, max int64) {
	if scale == Full {
		return 4, 4 << 20
	}
	return 1 << 10, 1 << 20
}

func collSweep(scale Scale) (min, max int64) {
	if scale == Full {
		return 64, 4 << 20
	}
	return 1 << 10, 1 << 20
}

func iters(scale Scale) int {
	if scale == Full {
		return 2
	}
	return 1
}

// ombSeries runs one collective config into a Series.
func ombSeries(name string, cfg omb.Config, op omb.Collective) (Series, error) {
	res, err := omb.RunCollective(cfg, op)
	if err != nil {
		return Series{}, fmt.Errorf("%s: %w", name, err)
	}
	s := Series{Name: name}
	for _, r := range res {
		s.Points = append(s.Points, Point{X: r.Bytes, Latency: r.Latency})
	}
	return s, nil
}

// Table1 formats the system-hardware summary.
func Table1() string {
	rows := topology.Table1()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: Systems hardware information (single node)\n")
	fmt.Fprintf(&sb, "%-10s %-22s %-12s %-16s %-6s %-8s\n",
		"System", "CPU", "Memory", "Accelerator", "/Node", "DevMem")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-22s %-12s %-16s %-6d %-8s\n",
			r.System, r.CPU, r.Memory, r.Accelerator, r.PerNode, r.DeviceMem)
	}
	return sb.String()
}

// Fig1a reproduces the motivation: MPI vs pure NCCL Allreduce on 4 nodes /
// 32 GPUs of ThetaGPU, with the ≈16 KB crossover.
func Fig1a(scale Scale, reg *metrics.Registry) (*Figure, error) {
	min, max := collSweep(scale)
	base := omb.Config{System: "thetagpu", Nodes: 4, MinBytes: min, MaxBytes: max,
		Iterations: iters(scale), Metrics: reg}
	f := &Figure{ID: "fig1a", Title: "MPI vs NCCL Allreduce latency (32 GPUs, 4 nodes)",
		XLabel: "bytes", Metric: "latency"}
	mpiCfg := base
	mpiCfg.Stack = omb.StackMPI
	s, err := ombSeries("MPI", mpiCfg, omb.Allreduce)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)
	ncclCfg := base
	ncclCfg.Stack = omb.StackPureCCL
	s, err = ombSeries("NCCL", ncclCfg, omb.Allreduce)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)
	f.Notes = append(f.Notes, crossoverNote(f.Series[0], f.Series[1]))
	return f, nil
}

// Fig1b reproduces MPI vs pure RCCL Allgather on 4 nodes / 8 GPUs of MRI,
// with the ≈64 KB crossover.
func Fig1b(scale Scale, reg *metrics.Registry) (*Figure, error) {
	min, max := collSweep(scale)
	base := omb.Config{System: "mri", Nodes: 4, MinBytes: min, MaxBytes: max,
		Iterations: iters(scale), Metrics: reg}
	f := &Figure{ID: "fig1b", Title: "MPI vs RCCL Allgather latency (8 GPUs, 4 nodes)",
		XLabel: "bytes", Metric: "latency"}
	mpiCfg := base
	mpiCfg.Stack = omb.StackMPI
	s, err := ombSeries("MPI", mpiCfg, omb.Allgather)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)
	rcclCfg := base
	rcclCfg.Stack = omb.StackPureCCL
	s, err = ombSeries("RCCL", rcclCfg, omb.Allgather)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)
	f.Notes = append(f.Notes, crossoverNote(f.Series[0], f.Series[1]))
	return f, nil
}

// crossoverNote locates where series b overtakes series a.
func crossoverNote(a, b Series) string {
	for i := range a.Points {
		if i < len(b.Points) && b.Points[i].Latency < a.Points[i].Latency {
			return fmt.Sprintf("crossover: %s wins above ≈%d bytes", b.Name, a.Points[i].X)
		}
	}
	return fmt.Sprintf("no crossover observed (%s always ahead)", a.Name)
}

// backendSpec describes one backend's evaluation shape.
type backendSpec struct {
	name        string
	system      string
	backend     core.BackendKind
	singleNodes int
	multiNodes  int
}

func backendSpecs(scale Scale) []backendSpec {
	specs := []backendSpec{
		{"NCCL", "thetagpu", core.NCCL, 1, 16},
		{"RCCL", "mri", core.RCCL, 1, 8},
		{"HCCL", "voyager", core.HCCL, 1, 4},
		{"MSCCL", "thetagpu", core.MSCCL, 1, 2},
	}
	if scale == Quick {
		specs[0].multiNodes = 2
		specs[1].multiNodes = 4
		specs[2].multiNodes = 2
	}
	return specs
}

// pt2pt runs Fig 3 (intra-node) or Fig 4 (inter-node): per backend the
// latency, bandwidth, and bidirectional bandwidth sweeps.
func pt2pt(id, title string, nodes func(backendSpec) int, scale Scale, reg *metrics.Registry) (*Figure, error) {
	min, max := sweep(scale)
	f := &Figure{ID: id, Title: title, XLabel: "bytes", Metric: "latency|MB/s"}
	for _, spec := range backendSpecs(scale) {
		cfg := omb.Config{System: spec.system, Nodes: nodes(spec), Backend: spec.backend,
			MinBytes: min, MaxBytes: max, Iterations: iters(scale), Metrics: reg}
		lat, err := omb.RunPt2Pt(cfg, omb.LatencyBench)
		if err != nil {
			return nil, err
		}
		bw, err := omb.RunPt2Pt(cfg, omb.BandwidthBench)
		if err != nil {
			return nil, err
		}
		bibw, err := omb.RunPt2Pt(cfg, omb.BiBandwidthBench)
		if err != nil {
			return nil, err
		}
		ls := Series{Name: spec.name + " latency"}
		for _, r := range lat {
			ls.Points = append(ls.Points, Point{X: r.Bytes, Latency: r.Latency})
		}
		bs := Series{Name: spec.name + " bw"}
		for _, r := range bw {
			bs.Points = append(bs.Points, Point{X: r.Bytes, Value: r.BandwidthMBs})
		}
		bbs := Series{Name: spec.name + " bibw"}
		for _, r := range bibw {
			bbs.Points = append(bbs.Points, Point{X: r.Bytes, Value: r.BandwidthMBs})
		}
		f.Series = append(f.Series, ls, bs, bbs)
		last := len(lat) - 1
		f.Notes = append(f.Notes, fmt.Sprintf("%s: %v at %d B, peak %.0f MB/s, bidir %.0f MB/s",
			spec.name, lat[last].Latency, lat[last].Bytes, bw[last].BandwidthMBs, bibw[last].BandwidthMBs))
	}
	return f, nil
}

// Fig3 is the intra-node point-to-point evaluation.
func Fig3(scale Scale, reg *metrics.Registry) (*Figure, error) {
	return pt2pt("fig3", "Intra-node point-to-point (latency/bw/bibw per backend)",
		func(backendSpec) int { return 1 }, scale, reg)
}

// Fig4 is the inter-node point-to-point evaluation.
func Fig4(scale Scale, reg *metrics.Registry) (*Figure, error) {
	return pt2pt("fig4", "Inter-node point-to-point (latency/bw/bibw per backend)",
		func(backendSpec) int { return 2 }, scale, reg)
}

// collectives runs the Fig 5 (single-node) or Fig 6 (multi-node) grid: four
// operations × four backends × {hybrid, pure-xCCL, pure CCL, and (NCCL
// only) Open MPI + UCX + UCC}.
func collectives(id, title string, multi bool, scale Scale, reg *metrics.Registry) (*Figure, error) {
	min, max := collSweep(scale)
	f := &Figure{ID: id, Title: title, XLabel: "bytes", Metric: "latency"}
	ops := []omb.Collective{omb.Allreduce, omb.Reduce, omb.Bcast, omb.Alltoall}
	for _, spec := range backendSpecs(scale) {
		nodes := spec.singleNodes
		if multi {
			nodes = spec.multiNodes
		}
		base := omb.Config{System: spec.system, Nodes: nodes, Backend: spec.backend,
			MinBytes: min, MaxBytes: max, Iterations: iters(scale), Metrics: reg}
		for _, op := range ops {
			type variant struct {
				label string
				stack omb.Stack
				bk    core.BackendKind
			}
			variants := []variant{
				{"hybrid", omb.StackHybrid, spec.backend},
				{"pure-xccl", omb.StackPureXCCL, spec.backend},
				{"pure-ccl", omb.StackPureCCL, spec.backend},
			}
			if spec.backend == core.NCCL {
				variants = append(variants, variant{"ompi-ucx-ucc", omb.StackUCC, spec.backend})
			}
			if spec.backend == core.MSCCL && op == omb.Allreduce {
				variants = append(variants, variant{"pure-nccl-2.12", omb.StackPureCCL, core.LegacyNCCL})
			}
			for _, v := range variants {
				cfg := base
				cfg.Stack = v.stack
				cfg.Backend = v.bk
				if v.label == "hybrid" {
					cfg.Table = hierTable(spec.system, v.bk, nodes)
				}
				s, err := ombSeries(fmt.Sprintf("%s/%s/%s", spec.name, op, v.label), cfg, op)
				if err != nil {
					return nil, err
				}
				f.Series = append(f.Series, s)
			}
		}
	}
	return f, nil
}

// Fig5 is the single-node collective grid.
func Fig5(scale Scale, reg *metrics.Registry) (*Figure, error) {
	return collectives("fig5", "Collective latency, single node (4 ops × 4 backends)", false, scale, reg)
}

// Fig6 is the multi-node collective grid.
func Fig6(scale Scale, reg *metrics.Registry) (*Figure, error) {
	return collectives("fig6", "Collective latency, multi node (4 ops × 4 backends)", true, scale, reg)
}

// dlFigure runs one application-level figure: per engine and batch size,
// aggregate img/s.
func dlFigure(id, title, system string, nodes int, backend core.BackendKind, engines []dl.Engine, reg *metrics.Registry) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "batch", Metric: "img/s"}
	for _, eng := range engines {
		s := Series{Name: string(eng)}
		var table *core.TuningTable
		if eng == dl.EngineXCCL {
			table = hierTable(system, backend, nodes)
		}
		for _, bs := range []int{32, 64, 128} {
			rep, err := dl.Train(dl.Config{System: system, Nodes: nodes, BatchSize: bs,
				Steps: 1, Engine: eng, Backend: backend, Table: table, Metrics: reg,
				Persistent: persistEnabled && eng == dl.EngineXCCL,
				Compile:    compileEnabled && eng == dl.EngineXCCL})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: int64(bs), Value: rep.ImgPerSec})
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Fig7 is TensorFlow+Horovod on the NVIDIA system (1 node and multi-node).
func Fig7(scale Scale, reg *metrics.Registry) (*Figure, error) {
	engines := []dl.Engine{dl.EngineXCCL, dl.EnginePureCCL, dl.EngineOpenMPI, dl.EngineUCC}
	a, err := dlFigure("fig7a", "Horovod on NVIDIA, 1 node (8 GPUs)", "thetagpu", 1, core.NCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	nodes := 2
	if scale == Full {
		nodes = 16
	}
	b, err := dlFigure("fig7b", fmt.Sprintf("Horovod on NVIDIA, %d nodes (%d GPUs)", nodes, nodes*8),
		"thetagpu", nodes, core.NCCL, []dl.Engine{dl.EngineXCCL, dl.EngineOpenMPI, dl.EngineUCC}, reg)
	if err != nil {
		return nil, err
	}
	a.ID = "fig7"
	for _, s := range b.Series {
		s.Name = fmt.Sprintf("%dn/%s", nodes, s.Name)
		a.Series = append(a.Series, s)
	}
	return a, nil
}

// Fig8 is Horovod on the AMD system.
func Fig8(scale Scale, reg *metrics.Registry) (*Figure, error) {
	engines := []dl.Engine{dl.EngineXCCL, dl.EnginePureCCL}
	a, err := dlFigure("fig8a", "Horovod on AMD, 4 nodes (8 GPUs)", "mri", 4, core.RCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	b, err := dlFigure("fig8b", "Horovod on AMD, 8 nodes (16 GPUs)", "mri", 8, core.RCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	a.ID = "fig8"
	for _, s := range b.Series {
		s.Name = "8n/" + s.Name
		a.Series = append(a.Series, s)
	}
	return a, nil
}

// Fig9 is Horovod on the Habana system.
func Fig9(scale Scale, reg *metrics.Registry) (*Figure, error) {
	engines := []dl.Engine{dl.EngineXCCL, dl.EnginePureCCL}
	a, err := dlFigure("fig9a", "Horovod on Habana, 1 node (8 HPUs)", "voyager", 1, core.HCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	nodes := 2
	if scale == Full {
		nodes = 4
	}
	b, err := dlFigure("fig9b", fmt.Sprintf("Horovod on Habana, %d nodes (%d HPUs)", nodes, nodes*8),
		"voyager", nodes, core.HCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	a.ID = "fig9"
	for _, s := range b.Series {
		s.Name = fmt.Sprintf("%dn/%s", nodes, s.Name)
		a.Series = append(a.Series, s)
	}
	return a, nil
}

// Fig10 is Horovod with the MSCCL backend on the NVIDIA system.
func Fig10(scale Scale, reg *metrics.Registry) (*Figure, error) {
	engines := []dl.Engine{dl.EngineXCCL, dl.EnginePureCCL}
	a, err := dlFigure("fig10a", "Horovod with MSCCL, 1 node (8 GPUs)", "thetagpu", 1, core.MSCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	b, err := dlFigure("fig10b", "Horovod with MSCCL, 2 nodes (16 GPUs)", "thetagpu", 2, core.MSCCL, engines, reg)
	if err != nil {
		return nil, err
	}
	a.ID = "fig10"
	for _, s := range b.Series {
		s.Name = "2n/" + s.Name
		a.Series = append(a.Series, s)
	}
	return a, nil
}

// Format renders a figure as aligned text tables, one row per X value.
func Format(f *Figure) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	// Collect the X axis.
	xs := map[int64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	axis := make([]int64, 0, len(xs))
	for x := range xs {
		axis = append(axis, x)
	}
	sort.Slice(axis, func(i, j int) bool { return axis[i] < axis[j] })
	fmt.Fprintf(&sb, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, " %26s", truncate(s.Name, 26))
	}
	sb.WriteString("\n")
	for _, x := range axis {
		fmt.Fprintf(&sb, "%12d", x)
		for _, s := range f.Series {
			var cell string
			for _, p := range s.Points {
				if p.X == x {
					if p.Value != 0 {
						cell = fmt.Sprintf("%.0f", p.Value)
					} else {
						cell = fmt.Sprintf("%.2fus", float64(p.Latency.Nanoseconds())/1000)
					}
					break
				}
			}
			fmt.Fprintf(&sb, " %26s", cell)
		}
		sb.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// IDs lists every experiment id in paper order.
func IDs() []string {
	return []string{"table1", "fig1a", "fig1b", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "resilience", "elastic", "partition"}
}

// Run executes one experiment by id and returns its formatted output.
func Run(id string, scale Scale) (string, error) {
	return RunWith(id, scale, nil)
}

// RunWith is Run with a metrics registry wired through the whole stack
// under test: every rerun figure also aggregates dispatch-path counters,
// fallback causes, protocol choices, and latency histograms into reg
// (nil disables instrumentation).
func RunWith(id string, scale Scale, reg *metrics.Registry) (string, error) {
	switch id {
	case "table1":
		return Table1(), nil
	case "fig1a":
		f, err := Fig1a(scale, reg)
		return format(f, err)
	case "fig1b":
		f, err := Fig1b(scale, reg)
		return format(f, err)
	case "fig3":
		f, err := Fig3(scale, reg)
		return format(f, err)
	case "fig4":
		f, err := Fig4(scale, reg)
		return format(f, err)
	case "fig5":
		f, err := Fig5(scale, reg)
		return format(f, err)
	case "fig6":
		f, err := Fig6(scale, reg)
		return format(f, err)
	case "fig7":
		f, err := Fig7(scale, reg)
		return format(f, err)
	case "fig8":
		f, err := Fig8(scale, reg)
		return format(f, err)
	case "fig9":
		f, err := Fig9(scale, reg)
		return format(f, err)
	case "fig10":
		f, err := Fig10(scale, reg)
		return format(f, err)
	case "resilience":
		f, err := Resilience(scale, reg)
		return format(f, err)
	case "elastic":
		f, err := Elastic(scale, reg)
		return format(f, err)
	case "partition":
		f, err := Partition(scale, reg)
		return format(f, err)
	default:
		return "", fmt.Errorf("experiments: unknown id %q (want one of %s)", id, strings.Join(IDs(), ", "))
	}
}

func format(f *Figure, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return Format(f), nil
}
