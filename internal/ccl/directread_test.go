package ccl_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/device"
	"mpixccl/internal/elem"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// Direct-read hazards. The staged pipes hand a consumer a reference to the
// sender's source region instead of a copy, so a sender that finishes its
// part of an op while a peer has not yet read from it must stage what is
// still outstanding before its buffers may change. The sweep below makes
// one rank a straggler — its device copies and reduces a thousand times
// slower, so it is still consuming its neighbors' last sends when they
// finish — and has every other rank overwrite its send and recv buffers
// the moment its stream synchronizes. Every rank's result, the
// straggler's included, must still equal the MPI reference bytewise.
//
// A fault-plan OpDelay cannot produce this lag: it is charged before the
// op's start rendezvous, which every rank waits out together.

// drStraggler is the slow rank: the root of Reduce and the trees, a node
// leader of the hierarchical schedules, and a member of every ring.
const drStraggler = 0

// drOp is one collective shape of the sweep. Buffer lengths are in
// float32 elements for a per-rank count.
type drOp struct {
	name    string
	algo    ccl.Algorithm
	sendLen func(n, count int) int
	recvLen func(n, count int) int
	// issue enqueues the one-shot call; init builds the persistent handle
	// (nil when the collective has none).
	issue func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) error
	init  func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) (*ccl.PersistentColl, error)
	// want is rank r's expected recv contents given every rank's send
	// contents (nil = recv unspecified on this rank).
	want func(r, n, count int, sends [][]byte) []byte
}

// perRank and allRanks size a buffer holding one block, or one per rank.
func perRank(n, count int) int  { return count }
func allRanks(n, count int) int { return n * count }

// drSum is the MPI reference sum of every rank's float32 payload.
func drSum(sends [][]byte) []byte {
	out := append([]byte(nil), sends[0]...)
	for _, s := range sends[1:] {
		elem.Reduce(elem.OpSum, elem.F32, out, s, len(out)/4)
	}
	return out
}

func drAllReduce(name string, algo ccl.Algorithm) drOp {
	return drOp{name: name, algo: algo, sendLen: perRank, recvLen: perRank,
		issue: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) error {
			return c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s)
		},
		init: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) (*ccl.PersistentColl, error) {
			return c.AllReduceInit(send, recv, count, ccl.Float32, ccl.Sum, s)
		},
		want: func(r, n, count int, sends [][]byte) []byte { return drSum(sends) },
	}
}

func drAllGather(name string, algo ccl.Algorithm) drOp {
	return drOp{name: name, algo: algo, sendLen: perRank, recvLen: allRanks,
		issue: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) error {
			return c.AllGather(send, recv, count, ccl.Float32, s)
		},
		init: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) (*ccl.PersistentColl, error) {
			return c.AllgatherInit(send, recv, count, ccl.Float32, s)
		},
		want: func(r, n, count int, sends [][]byte) []byte { return bytes.Join(sends, nil) },
	}
}

func drReduceScatter(name string, algo ccl.Algorithm) drOp {
	return drOp{name: name, algo: algo, sendLen: allRanks, recvLen: perRank,
		issue: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) error {
			return c.ReduceScatter(send, recv, count, ccl.Float32, ccl.Sum, s)
		},
		want: func(r, n, count int, sends [][]byte) []byte {
			blk := count * 4
			return drSum(sends)[r*blk : (r+1)*blk]
		},
	}
}

// drOps is the sweep: ring, tree, hierarchical (a flat fallback below
// two nodes), Reduce with its scratch accumulator, both reduce-scatter
// schedules, and a converted MSCCL schedule — the compiled executor's
// staged moves.
func drOps() []drOp {
	return []drOp{
		drAllReduce("allreduce/ring", ccl.AlgoFlatRing),
		drAllReduce("allreduce/tree", ccl.AlgoTree),
		drAllReduce("allreduce/hier", ccl.AlgoHierarchical),
		{name: "allreduce/msccl-allpairs", sendLen: perRank, recvLen: perRank,
			issue: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) error {
				return c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s)
			},
			want: func(r, n, count int, sends [][]byte) []byte { return drSum(sends) },
		},
		drAllGather("allgather/ring", ccl.AlgoFlatRing),
		drAllGather("allgather/hier", ccl.AlgoHierarchical),
		{name: "reduce", sendLen: perRank, recvLen: perRank,
			issue: func(c *ccl.Comm, send, recv *device.Buffer, count int, s *device.Stream) error {
				return c.Reduce(send, recv, count, ccl.Float32, ccl.Sum, drStraggler, s)
			},
			want: func(r, n, count int, sends [][]byte) []byte {
				if r != drStraggler {
					return nil
				}
				return drSum(sends)
			},
		},
		drReduceScatter("reducescatter/ring", ccl.AlgoFlatRing),
		drReduceScatter("reducescatter/hier", ccl.AlgoHierarchical),
	}
}

// drFill writes rank r's wave-w payload: small integers, so every
// reduction is exact under any association order.
func drFill(buf *device.Buffer, r, w int) {
	for i := 0; i < int(buf.Len()/4); i++ {
		buf.SetFloat32(i, float32((r*31+i*7+w*3)%8))
	}
}

// runDirectRead runs op on n ranks for waves executions (one-shot calls,
// or waves of one persistent handle) with a slowed straggler, the other
// ranks clobbering their buffers as soon as each execution synchronizes,
// and returns the recv contents per wave and rank plus the send contents
// the reference is computed from.
func runDirectRead(t *testing.T, op drOp, n, count, waves int, persistent bool, h *harness) (got, sends [][][]byte) {
	t.Helper()
	got = make([][][]byte, waves)
	sends = make([][][]byte, waves)
	for w := range got {
		got[w] = make([][]byte, n)
		sends[w] = make([][]byte, n)
	}
	slow := h.comms[drStraggler].Device()
	slow.MemBandwidth /= 1000
	slow.ReduceBandwidth /= 1000
	if op.name == "allreduce/msccl-allpairs" {
		if err := h.comms[0].RegisterAlgo(ccl.AllPairsAllReduce(n, 0, 1<<40)); err != nil {
			t.Fatal(err)
		}
	}
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		c.SetAlgorithm(op.algo, 0)
		send := c.Device().MustMalloc(int64(op.sendLen(n, count)) * 4)
		recv := c.Device().MustMalloc(int64(op.recvLen(n, count)) * 4)
		var pc *ccl.PersistentColl
		if persistent {
			var err error
			if pc, err = op.init(c, send, recv, count, s); err != nil {
				t.Errorf("rank %d init: %v", r, err)
				return
			}
		}
		for w := 0; w < waves; w++ {
			drFill(send, r, w)
			sends[w][r] = append([]byte(nil), send.Bytes()...)
			var err error
			if persistent {
				err = pc.Do(p)
			} else if err = op.issue(c, send, recv, count, s); err == nil {
				s.Synchronize(p)
				err = c.TakeAsyncErr()
			}
			if err != nil {
				t.Errorf("rank %d wave %d: %v", r, w, err)
				return
			}
			got[w][r] = append([]byte(nil), recv.Bytes()...)
			if r != drStraggler {
				send.FillBytes(0xEE)
				recv.FillBytes(0xEE)
			}
		}
	})
	return got, sends
}

func checkDirectRead(t *testing.T, op drOp, n, count int, got, sends [][][]byte) {
	t.Helper()
	for w := range got {
		for r := 0; r < n; r++ {
			want := op.want(r, n, count, sends[w])
			if want != nil && !bytes.Equal(got[w][r], want) {
				t.Fatalf("wave %d rank %d: result differs from the MPI reference", w, r)
			}
		}
	}
}

func TestDirectReadStragglerOneShot(t *testing.T) {
	for _, n := range []int{2, 3, 4, 16} {
		for _, op := range drOps() {
			t.Run(fmt.Sprintf("%s/n=%d", op.name, n), func(t *testing.T) {
				h := newHarness(t, "thetagpu", n, nccl.New)
				got, sends := runDirectRead(t, op, n, 4099, 2, false, h)
				checkDirectRead(t, op, n, 4099, got, sends)
			})
		}
	}
}

func TestDirectReadStragglerPersistent(t *testing.T) {
	for _, n := range []int{2, 3, 4, 16} {
		for _, op := range drOps() {
			if op.init == nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d", op.name, n), func(t *testing.T) {
				h := newHarness(t, "thetagpu", n, nccl.New)
				got, sends := runDirectRead(t, op, n, 4099, 3, true, h)
				checkDirectRead(t, op, n, 4099, got, sends)
			})
		}
	}
}

// everyThird corrupts one byte of every third data-transfer attempt, up
// to a budget: a deterministic wire fault that the CRC check catches and
// retransmits heal (the budget is below the retry limit, so no transfer
// can exhaust it even when the probes of concurrent transfers interleave).
type everyThird struct{ seen, flips int }

func (c *everyThird) CorruptTransfer(class string, srcNode, dstNode int, n int64, now time.Duration) []int64 {
	c.seen++
	if c.seen%3 != 0 || c.flips == 40 {
		return nil
	}
	c.flips++
	return []int64{n / 2}
}

// TestDirectReadStagedPathUnchanged: with a corrupter attached the pipes
// stage every hop into the slot, so the CRC checks and retransmits still
// run. Staging must cost exactly what a copying pipe costs: the virtual
// end time and the retransmit count of each schedule are pinned to the
// values the copying pipes give, and the results stay exact.
func TestDirectReadStagedPathUnchanged(t *testing.T) {
	pins := map[string]struct {
		end         time.Duration
		retransmits float64
	}{
		"allreduce/ring":           {289738 * time.Nanosecond, 40},
		"allreduce/tree":           {321458 * time.Nanosecond, 29},
		"allreduce/hier":           {293248 * time.Nanosecond, 31},
		"allreduce/msccl-allpairs": {136754 * time.Nanosecond, 40},
		"allgather/ring":           {414752 * time.Nanosecond, 40},
		"allgather/hier":           {209590 * time.Nanosecond, 40},
		"reduce":                   {305452 * time.Nanosecond, 14},
		"reducescatter/ring":       {1257966 * time.Nanosecond, 40},
		"reducescatter/hier":       {3548181 * time.Nanosecond, 40},
	}
	const n, count = 16, 4099
	for _, op := range drOps() {
		t.Run(op.name, func(t *testing.T) {
			h := newHarness(t, "thetagpu", n, nccl.New)
			reg := metrics.NewRegistry()
			h.fab.SetMetrics(reg)
			h.fab.SetFaults(&everyThird{})
			h.fab.SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 64})
			got, sends := runDirectRead(t, op, n, count, 2, false, h)
			checkDirectRead(t, op, n, count, got, sends)
			var rt float64
			for _, link := range []string{"intra", "inter"} {
				v, _ := reg.CounterValue("xccl_transfer_retransmits_total", metrics.Labels{"link": link})
				rt += v
			}
			end := h.k.Now()
			if pin := pins[op.name]; end != pin.end || rt != pin.retransmits {
				t.Errorf("end %v, %v retransmits; want %v, %v", end, rt, pin.end, pin.retransmits)
			}
		})
	}
}
