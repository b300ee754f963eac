package omb

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// Pt2PtKind names an OMB point-to-point benchmark.
type Pt2PtKind string

// Point-to-point benchmarks.
const (
	// LatencyBench is osu_latency: ping-pong, reported one-way.
	LatencyBench Pt2PtKind = "latency"
	// BandwidthBench is osu_bw: windowed back-to-back sends.
	BandwidthBench Pt2PtKind = "bw"
	// BiBandwidthBench is osu_bibw: simultaneous windows both ways.
	BiBandwidthBench Pt2PtKind = "bibw"
)

// bwWindow is OMB's default window size (reduced from 64 to bound event
// counts; bandwidth is window-size independent once the pipe is full).
const bwWindow = 16

// RunPt2Pt measures a point-to-point benchmark between two ranks over the
// vendor CCL (xcclSend/xcclRecv), the paper's Fig 3 (intra-node) and
// Fig 4 (inter-node) depending on cfg.Nodes: with one node both endpoints
// share it; with two or more, the peer sits on the second node.
func RunPt2Pt(cfg Config, bench Pt2PtKind) ([]Result, error) {
	switch bench {
	case LatencyBench, BandwidthBench, BiBandwidthBench:
	default:
		return nil, fmt.Errorf("omb: unknown pt2pt bench %q", bench)
	}
	cfg.fillDefaults()
	w, err := buildWorld(&cfg)
	if err != nil {
		return nil, err
	}
	defer w.k.Close()
	a := w.sys.Device(0)
	b := w.sys.Device(1)
	if cfg.Nodes > 1 {
		b = w.sys.Nodes[1].Devices[0]
	}
	kind, err := core.ResolveBackend(cfg.Backend, a.Kind)
	if err != nil {
		return nil, err
	}
	comms, err := core.NewBackendComms(kind, w.fab, []*device.Device{a, b})
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		comms[0].SetMetrics(cfg.Metrics)
	}
	sizes := Sizes(cfg.MinBytes, cfg.MaxBytes)
	results := make([]Result, len(sizes))
	bar := sim.NewBarrier(w.k, 2)

	run := func(rank int, p *sim.Proc) {
		cc := comms[rank]
		s := cc.Device().NewStream()
		buf := cc.Device().MustMalloc(sizes[len(sizes)-1])
		buf2 := cc.Device().MustMalloc(sizes[len(sizes)-1])
		ack := cc.Device().MustMalloc(4)
		for si, bytes := range sizes {
			// Elements are float32 so the same loop drives HCCL, whose
			// datatype matrix is float-only (the paper's OMB Habana port).
			count := int(bytes / 4)
			if count == 0 {
				count = 1
			}
			msgBytes := int64(count) * 4
			msg := buf.Slice(0, msgBytes)
			msg2 := buf2.Slice(0, msgBytes)
			bar.Wait(p)
			start := p.Now()
			iters := cfg.Iterations
			for it := 0; it < iters; it++ {
				switch bench {
				case LatencyBench:
					if rank == 0 {
						check(cc.Send(msg, count, ccl.Float32, 1, s))
						check(cc.Recv(msg, count, ccl.Float32, 1, s))
					} else {
						check(cc.Recv(msg, count, ccl.Float32, 0, s))
						check(cc.Send(msg, count, ccl.Float32, 0, s))
					}
					s.Synchronize(p)
				case BandwidthBench:
					// The window is fused into one group (a single launch),
					// as OMB's CCL bandwidth benchmark does with grouped
					// isend/irecv.
					check(cc.GroupStart())
					if rank == 0 {
						for wi := 0; wi < bwWindow; wi++ {
							check(cc.Send(msg, count, ccl.Float32, 1, s))
						}
					} else {
						for wi := 0; wi < bwWindow; wi++ {
							check(cc.Recv(msg, count, ccl.Float32, 0, s))
						}
					}
					check(cc.GroupEnd())
					if rank == 0 {
						check(cc.Recv(ack, 1, ccl.Float32, 1, s))
					} else {
						check(cc.Send(ack, 1, ccl.Float32, 0, s))
					}
					s.Synchronize(p)
				case BiBandwidthBench:
					peer := 1 - rank
					check(cc.GroupStart())
					for wi := 0; wi < bwWindow; wi++ {
						check(cc.Send(msg, count, ccl.Float32, peer, s))
						check(cc.Recv(msg2, count, ccl.Float32, peer, s))
					}
					check(cc.GroupEnd())
					s.Synchronize(p)
				default:
					panic(fmt.Sprintf("omb: unknown pt2pt bench %q", bench))
				}
			}
			elapsed := p.Now() - start
			if rank == 0 {
				results[si].Bytes = bytes
				switch bench {
				case LatencyBench:
					results[si].Latency = elapsed / time.Duration(2*iters)
				case BandwidthBench:
					payload := float64(bytes) * bwWindow * float64(iters)
					results[si].Latency = elapsed / time.Duration(iters)
					results[si].BandwidthMBs = payload / elapsed.Seconds() / 1e6
				case BiBandwidthBench:
					payload := 2 * float64(bytes) * bwWindow * float64(iters)
					results[si].Latency = elapsed / time.Duration(iters)
					results[si].BandwidthMBs = payload / elapsed.Seconds() / 1e6
				}
			}
			bar.Wait(p)
		}
	}
	for r := 0; r < 2; r++ {
		r := r
		w.k.Spawn(fmt.Sprintf("pt2pt-%d", r), func(p *sim.Proc) { run(r, p) })
	}
	if err := w.k.Run(); err != nil {
		return nil, err
	}
	return results, nil
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
