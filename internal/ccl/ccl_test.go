package ccl_test

import (
	"errors"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/hccl"
	"mpixccl/internal/ccl/msccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// harness builds a system, fabric, comms and one stream per rank.
type harness struct {
	k       *sim.Kernel
	sys     *topology.System
	fab     *fabric.Fabric
	comms   []*ccl.Comm
	streams []*device.Stream
}

func newHarness(t *testing.T, system string, nranks int, mk func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error)) *harness {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(func() { k.Close() })
	perNode := map[string]int{"thetagpu": 8, "mri": 2, "voyager": 8}[system]
	nodes := (nranks + perNode - 1) / perNode
	sys, err := topology.Preset(k, system, nodes)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	comms, err := mk(fab, sys.Devices()[:nranks])
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, sys: sys, fab: fab, comms: comms}
	for _, c := range comms {
		h.streams = append(h.streams, c.Device().NewStream())
	}
	return h
}

// runRanks runs fn per rank on its own process and drives the simulation.
func (h *harness) runRanks(t *testing.T, fn func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc)) {
	t.Helper()
	for r := range h.comms {
		r := r
		h.k.Spawn("main", func(p *sim.Proc) {
			fn(r, h.comms[r], h.streams[r], p)
		})
	}
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNCCLAllReduceCorrectness(t *testing.T) {
	for _, n := range []int{2, 3, 8, 16} {
		for _, count := range []int{1, 5, 1000, 300000} {
			h := newHarness(t, "thetagpu", n, nccl.New)
			results := make([]*device.Buffer, n)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				send := c.Device().MustMalloc(int64(count) * 4)
				recv := c.Device().MustMalloc(int64(count) * 4)
				for i := 0; i < count; i++ {
					send.SetFloat32(i, float32(r+1))
				}
				if err := c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
					t.Errorf("allreduce: %v", err)
					return
				}
				s.Synchronize(p)
				results[r] = recv
			})
			want := float32(n*(n+1)) / 2
			for r, buf := range results {
				for _, i := range []int{0, count / 2, count - 1} {
					if got := buf.Float32(i); got != want {
						t.Fatalf("n=%d count=%d rank=%d elem %d = %v, want %v", n, count, r, i, got, want)
					}
				}
			}
		}
	}
}

func TestNCCLBroadcastAndReduce(t *testing.T) {
	const n, count = 8, 2048
	h := newHarness(t, "thetagpu", n, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(count * 4)
		recv := c.Device().MustMalloc(count * 4)
		if r == 2 {
			for i := 0; i < count; i++ {
				send.SetFloat32(i, float32(i))
			}
		}
		if err := c.Broadcast(send, recv, count, ccl.Float32, 2, s); err != nil {
			t.Errorf("broadcast: %v", err)
		}
		s.Synchronize(p)
		if recv.Float32(100) != 100 {
			t.Errorf("rank %d bcast elem = %v", r, recv.Float32(100))
		}
		// Now reduce the broadcast data to root 0: every element i sums to n*i.
		out := c.Device().MustMalloc(count * 4)
		if err := c.Reduce(recv, out, count, ccl.Float32, ccl.Sum, 0, s); err != nil {
			t.Errorf("reduce: %v", err)
		}
		s.Synchronize(p)
		if r == 0 && out.Float32(10) != float32(10*n) {
			t.Errorf("reduce elem = %v, want %v", out.Float32(10), 10*n)
		}
	})
}

func TestNCCLAllGatherAndReduceScatter(t *testing.T) {
	const n, count = 8, 1024
	h := newHarness(t, "thetagpu", n, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(count * 4)
		all := c.Device().MustMalloc(n * count * 4)
		for i := 0; i < count; i++ {
			send.SetFloat32(i, float32(r*1000+i%7))
		}
		if err := c.AllGather(send, all, count, ccl.Float32, s); err != nil {
			t.Errorf("allgather: %v", err)
		}
		s.Synchronize(p)
		for blk := 0; blk < n; blk++ {
			if got := all.Float32(blk*count + 3); got != float32(blk*1000+3) {
				t.Errorf("rank %d allgather block %d = %v", r, blk, got)
			}
		}
		// ReduceScatter over the gathered buffer: block r sums to n×value.
		out := c.Device().MustMalloc(count * 4)
		if err := c.ReduceScatter(all, out, count, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("reducescatter: %v", err)
		}
		s.Synchronize(p)
		if got := out.Float32(3); got != float32(n)*float32(r*1000+3) {
			t.Errorf("rank %d reducescatter = %v, want %v", r, got, float32(n)*float32(r*1000+3))
		}
	})
}

func TestCCLSendRecvPair(t *testing.T) {
	h := newHarness(t, "thetagpu", 2, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		buf := c.Device().MustMalloc(4096)
		if r == 0 {
			buf.FillFloat32(7.5)
			if err := c.Send(buf, 1024, ccl.Float32, 1, s); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			if err := c.Recv(buf, 1024, ccl.Float32, 0, s); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
		s.Synchronize(p)
		if r == 1 && buf.Float32(512) != 7.5 {
			t.Errorf("recv elem = %v", buf.Float32(512))
		}
	})
}

// Group-call AlltoAllv per the paper's Listing 1, built directly on the CCL
// layer: every rank posts n-1 sends and n-1 recvs inside one group.
func TestGroupAlltoAll(t *testing.T) {
	const n, count = 8, 256
	h := newHarness(t, "thetagpu", n, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(n * count * 4)
		recv := c.Device().MustMalloc(n * count * 4)
		for peer := 0; peer < n; peer++ {
			for i := 0; i < count; i++ {
				send.SetFloat32(peer*count+i, float32(r*100+peer))
			}
		}
		if err := c.GroupStart(); err != nil {
			t.Errorf("group start: %v", err)
		}
		for peer := 0; peer < n; peer++ {
			if peer == r {
				copy(recv.Bytes()[peer*count*4:(peer+1)*count*4], send.Bytes()[peer*count*4:(peer+1)*count*4])
				continue
			}
			if err := c.Send(send.Slice(int64(peer)*count*4, count*4), count, ccl.Float32, peer, s); err != nil {
				t.Errorf("send: %v", err)
			}
			if err := c.Recv(recv.Slice(int64(peer)*count*4, count*4), count, ccl.Float32, peer, s); err != nil {
				t.Errorf("recv: %v", err)
			}
		}
		if err := c.GroupEnd(); err != nil {
			t.Errorf("group end: %v", err)
		}
		s.Synchronize(p)
		for peer := 0; peer < n; peer++ {
			if got := recv.Float32(peer*count + 9); got != float32(peer*100+r) {
				t.Errorf("rank %d block %d = %v, want %v", r, peer, got, peer*100+r)
			}
		}
	})
}

func TestHCCLRejectsNonFloat(t *testing.T) {
	h := newHarness(t, "voyager", 2, hccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		buf := c.Device().MustMalloc(64)
		err := c.AllReduce(buf, buf, 8, ccl.Float64, ccl.Sum, s)
		var ce *ccl.Error
		if !errors.As(err, &ce) || ce.Result != ccl.ErrUnsupportedDatatype {
			t.Errorf("float64 on hccl: err = %v", err)
		}
		// Float32 must work.
		send := c.Device().MustMalloc(64)
		recv := c.Device().MustMalloc(64)
		send.FillFloat32(1)
		if err := c.AllReduce(send, recv, 16, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("float32 on hccl: %v", err)
		}
		s.Synchronize(p)
		if recv.Float32(3) != 2 {
			t.Errorf("hccl allreduce = %v", recv.Float32(3))
		}
	})
}

func TestBackendDeviceKindChecks(t *testing.T) {
	k := sim.NewKernel()
	t.Cleanup(func() { k.Close() })
	theta := topology.ThetaGPU(k, 1)
	fab := fabric.New(k, theta)
	// RCCL cannot drive NVIDIA GPUs.
	_, err := rccl.New(fab, theta.Devices()[:2])
	var ce *ccl.Error
	if !errors.As(err, &ce) || ce.Result != ccl.ErrUnsupportedDevice {
		t.Fatalf("rccl on nvidia: %v", err)
	}
	if _, err := nccl.New(fab, theta.Devices()[:2]); err != nil {
		t.Fatalf("nccl on nvidia: %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	h := newHarness(t, "thetagpu", 2, nccl.New)
	c := h.comms[0]
	s := h.streams[0]
	buf := c.Device().MustMalloc(64)
	if err := c.AllReduce(buf, buf, -1, ccl.Float32, ccl.Sum, s); err == nil {
		t.Error("negative count accepted")
	}
	if err := c.AllReduce(buf, buf, 1000, ccl.Float32, ccl.Sum, s); err == nil {
		t.Error("oversized count accepted")
	}
	if err := c.Broadcast(buf, buf, 4, ccl.Float32, 9, s); err == nil {
		t.Error("bad root accepted")
	}
	if err := c.Send(buf, 4, ccl.Float32, 7, s); err == nil {
		t.Error("bad peer accepted")
	}
	// Missing or undersized gather/scatter buffers: an argument error that
	// names the operation and the calling rank, never a nil dereference.
	for _, tc := range []struct {
		op   string
		call func() error
	}{
		{"allgather", func() error { return c.AllGather(buf, nil, 4, ccl.Float32, s) }},
		{"allgather", func() error { return c.AllGather(buf, buf, 16, ccl.Float32, s) }},
		{"allgather-init", func() error {
			_, err := c.AllgatherInit(buf, nil, 4, ccl.Float32, s)
			return err
		}},
		{"reducescatter", func() error { return c.ReduceScatter(nil, buf, 4, ccl.Float32, ccl.Sum, s) }},
		{"reducescatter", func() error { return c.ReduceScatter(buf, buf, 16, ccl.Float32, ccl.Sum, s) }},
	} {
		err := tc.call()
		var ce *ccl.Error
		if !errors.As(err, &ce) || ce.Result != ccl.ErrInvalidArgument || ce.Op != tc.op || ce.Rank != 0 {
			t.Errorf("%s: err = %v, want xcclInvalidArgument for op %s on rank 0", tc.op, err, tc.op)
		}
	}
	if err := c.GroupEnd(); err == nil {
		t.Error("group end without start accepted")
	}
	if err := c.GroupStart(); err != nil {
		t.Error(err)
	}
	if err := c.GroupStart(); err == nil {
		t.Error("nested group start accepted")
	}
}

// The launch overhead must dominate small-message latency, giving each
// backend its measured latency floor (20/25/270/28 µs).
func TestLaunchOverheadFloors(t *testing.T) {
	cases := []struct {
		system  string
		mk      func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error)
		floor   time.Duration
		ceiling time.Duration
	}{
		{"thetagpu", nccl.New, 20 * time.Microsecond, 40 * time.Microsecond},
		{"mri", rccl.New, 25 * time.Microsecond, 50 * time.Microsecond},
		{"voyager", hccl.New, 270 * time.Microsecond, 330 * time.Microsecond},
		{"thetagpu", msccl.New, 28 * time.Microsecond, 50 * time.Microsecond},
	}
	for _, tc := range cases {
		h := newHarness(t, tc.system, 2, tc.mk)
		var lat time.Duration
		h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
			buf := c.Device().MustMalloc(4)
			start := p.Now()
			if r == 0 {
				if err := c.Send(buf, 1, ccl.Float32, 1, s); err != nil {
					t.Errorf("send: %v", err)
				}
			} else {
				if err := c.Recv(buf, 1, ccl.Float32, 0, s); err != nil {
					t.Errorf("recv: %v", err)
				}
			}
			s.Synchronize(p)
			if r == 1 {
				lat = p.Now() - start
			}
		})
		if lat < tc.floor || lat > tc.ceiling {
			t.Errorf("%s small-message latency %v, want in [%v, %v]",
				tc.system, lat, tc.floor, tc.ceiling)
		}
	}
}

func TestMSCCLCustomAlgoCorrectAndFaster(t *testing.T) {
	const n = 8
	const count = 4096 // 16 KB: inside the allpairs window
	run := func(mk func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error)) (time.Duration, float32) {
		h := newHarness(t, "thetagpu", n, mk)
		var lat time.Duration
		var sample float32
		h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
			send := c.Device().MustMalloc(count * 4)
			recv := c.Device().MustMalloc(count * 4)
			for i := 0; i < count; i++ {
				send.SetFloat32(i, float32(r+1))
			}
			start := p.Now()
			if err := c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
				t.Errorf("allreduce: %v", err)
			}
			s.Synchronize(p)
			if d := p.Now() - start; d > lat {
				lat = d
			}
			if r == 0 {
				sample = recv.Float32(count / 2)
			}
		})
		return lat, sample
	}
	customLat, customVal := run(msccl.New)
	plainLat, plainVal := run(msccl.NewPlain)
	want := float32(n*(n+1)) / 2
	if customVal != want || plainVal != want {
		t.Fatalf("values: custom=%v plain=%v want %v", customVal, plainVal, want)
	}
	if customLat >= plainLat {
		t.Errorf("allpairs (%v) not faster than embedded NCCL (%v) in medium window", customLat, plainLat)
	}
}

func TestAlgoValidation(t *testing.T) {
	bad := &ccl.Algo{Name: "bad", Collective: "allreduce", Ranks: 4, NChunks: 4,
		Steps: []ccl.Step{{Xfers: []ccl.ChunkXfer{{From: 0, To: 9, SrcChunk: 0, DstChunk: 0}}}}}
	if err := bad.Validate(); err == nil {
		t.Error("bad endpoints accepted")
	}
	selfloop := &ccl.Algo{Name: "self", Collective: "allreduce", Ranks: 4, NChunks: 2,
		Steps: []ccl.Step{{Xfers: []ccl.ChunkXfer{{From: 1, To: 1}}}}}
	if err := selfloop.Validate(); err == nil {
		t.Error("self loop accepted")
	}
	good := ccl.AllPairsAllReduce(4, 0, 0)
	if err := good.Validate(); err != nil {
		t.Errorf("allpairs invalid: %v", err)
	}
	if !good.Matches("allreduce", 4, 1024) {
		t.Error("allpairs should match")
	}
	if good.Matches("broadcast", 4, 1024) || good.Matches("allreduce", 8, 1024) {
		t.Error("mismatched collective/ranks accepted")
	}
	bounded := ccl.AllPairsAllReduce(4, 256, 1024)
	if bounded.Matches("allreduce", 4, 100) || bounded.Matches("allreduce", 4, 5000) {
		t.Error("size bounds ignored")
	}
}

func TestRCCLOnMRI(t *testing.T) {
	const n, count = 4, 10000
	h := newHarness(t, "mri", n, rccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(count * 4)
		recv := c.Device().MustMalloc(count * 4)
		send.FillFloat32(float32(r + 1))
		if err := c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("allreduce: %v", err)
		}
		s.Synchronize(p)
		if recv.Float32(77) != 10 {
			t.Errorf("rccl allreduce = %v", recv.Float32(77))
		}
	})
}

// Streams make collectives asynchronous: the enqueue returns immediately in
// virtual time, and only Synchronize blocks.
func TestCollectiveIsAsynchronous(t *testing.T) {
	h := newHarness(t, "thetagpu", 2, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(1 << 20)
		recv := c.Device().MustMalloc(1 << 20)
		start := p.Now()
		if err := c.AllReduce(send, recv, 1<<18, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("allreduce: %v", err)
		}
		if p.Now() != start {
			t.Error("enqueue blocked the caller")
		}
		s.Synchronize(p)
		if p.Now() == start {
			t.Error("synchronize did not advance time")
		}
	})
}

func TestCommSplit(t *testing.T) {
	h := newHarness(t, "thetagpu", 8, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		sub, err := c.CommSplit(p, r%2, r)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		subStream := sub.Device().NewStream()
		send := sub.Device().MustMalloc(1024)
		recv := sub.Device().MustMalloc(1024)
		send.FillFloat32(float32(r))
		if err := sub.AllReduce(send, recv, 256, ccl.Float32, ccl.Sum, subStream); err != nil {
			t.Errorf("sub allreduce: %v", err)
			return
		}
		subStream.Synchronize(p)
		want := float32(0 + 2 + 4 + 6)
		if r%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if recv.Float32(3) != want {
			t.Errorf("rank %d sub sum = %v, want %v", r, recv.Float32(3), want)
		}
	})
}

func TestCommSplitOptOut(t *testing.T) {
	h := newHarness(t, "thetagpu", 4, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		color := 0
		if r == 3 {
			color = -1
		}
		sub, err := c.CommSplit(p, color, r)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if r == 3 {
			if sub != nil {
				t.Error("opt-out rank got a communicator")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
	})
}
