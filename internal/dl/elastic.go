package dl

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// ckptBandwidth is the sustained device-to-host serialization rate a
// checkpoint pays (NVMe-backed host staging, ~12 GB/s).
const ckptBandwidth = 12 << 30

// CheckpointTime returns the virtual time one synchronous checkpoint of
// model m costs (write and restore pay the same serialization).
// Exhibits use it to place fault windows relative to step boundaries.
func CheckpointTime(m *Model) time.Duration {
	return time.Duration(float64(m.Params()*4) / ckptBandwidth * float64(time.Second))
}

// ElasticReport extends Report with the fail-stop recovery outcome of one
// TrainElastic run.
type ElasticReport struct {
	Report
	// StartRanks and FinalRanks are the worker counts before the first
	// step and after the last (without spares they differ by the crashed
	// ranks; with spares a successful Grow restores the original width).
	StartRanks, FinalRanks int
	// CrashedRanks lists the world ranks that fail-stopped.
	CrashedRanks []int
	// Shrinks counts completed communicator shrinks.
	Shrinks int
	// Grows counts completed spare-rank communicator grows.
	Grows int
	// AdoptedRanks lists the spare world ranks adopted by Grows, in
	// adoption order.
	AdoptedRanks []int
	// SuspectedAt maps world ranks the heartbeat detector confirmed dead
	// to the virtual time of suspicion (nil when the detector is off).
	SuspectedAt map[int]time.Duration
	// Partitions counts handled network-partition episodes (quorum shrinks
	// that excluded alive-but-unreachable ranks).
	Partitions int
	// FencedRanks counts ranks that fenced themselves on the minority side
	// of a partition (cumulative; they clear the fence when they rejoin).
	FencedRanks int
	// Epoch is the final membership epoch: completed shrinks plus grows.
	Epoch int
	// RollbackSteps is the total training steps re-executed after
	// rollbacks to the last checkpoint.
	RollbackSteps int
	// Checkpoints counts checkpoints taken (recorder rank's view).
	Checkpoints int
	// StepLatency is the recorder rank's per-executed-step wall time, in
	// execution order — re-executed steps appear again, so a crashed run
	// shows the rollback as repeated entries.
	StepLatency []time.Duration
	// Loss is the recorder rank's loss after each executed step: a
	// deterministic function of cumulative examples seen, so rollback and
	// the shrunken world are visible as a replayed, slower-improving tail.
	Loss []float64
}

// lossAfter is the deterministic stand-in loss curve: purely a function of
// cumulative examples contributed to the model, so two runs that process
// the same example count — regardless of crashes and rollbacks — report
// the same loss.
func lossAfter(examples int64) float64 {
	return 8 / math.Sqrt(1+float64(examples)/1000)
}

// TrainElastic runs the synchronous data-parallel loop with fail-stop
// recovery: gradients ride the xCCL layer's CCL path with the collective
// watchdog armed, periodic checkpoints bound the work a crash can destroy,
// and when a rank fail-stops mid-step the survivors revoke the
// communicator, shrink to a new one (ULFM-style), roll back to the last
// checkpoint, and continue training on the smaller world. The run is
// deterministic: same config + same fault plan = same report.
//
// With Config.Spares > 0 the run recovers to full width instead: the job
// launches extra ranks that park in the runtime's spare pool, the
// heartbeat failure detector (armed by default alongside spares) catches
// crashes in a few intervals, and after the Shrink the survivors Grow the
// communicator back by adopting spares, which restore their replica from
// the last checkpoint before joining. A recovered run processes exactly
// the examples a fault-free one does, so the final loss matches.
//
// The engine is the xCCL runtime in PureCCL mode — recovery needs every
// gradient exchange on the watchdog-guarded CCL path, since an MPI
// collective would block forever on the dead peer.
func TrainElastic(cfg Config) (ElasticReport, error) {
	cfg.fillDefaults()
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2
	}
	pol := cfg.Resilience
	if pol == nil {
		pol = core.DefaultResilience()
		pol.WatchdogTimeout = 2 * time.Millisecond
		if cfg.Spares > 0 {
			// Proactive detection: heartbeats a few times faster than the
			// watchdog, so the detector confirms a crash well before a
			// blocked collective would time out.
			pol.HeartbeatInterval = pol.WatchdogTimeout / 8
		}
	}
	k := sim.NewKernel()
	sys, err := topology.Preset(k, cfg.System, cfg.Nodes)
	if err != nil {
		return ElasticReport{}, err
	}
	fab := fabric.New(k, sys)
	if cfg.Faults != nil {
		fab.SetFaults(cfg.Faults)
	}
	nranks := cfg.Ranks
	if nranks == 0 {
		nranks = sys.NumDevices() - cfg.Spares
	}
	if nranks <= 0 {
		return ElasticReport{}, fmt.Errorf("dl: no active ranks left after %d spares on %d devices", cfg.Spares, sys.NumDevices())
	}
	nprocs := nranks + cfg.Spares
	if nprocs > sys.NumDevices() {
		return ElasticReport{}, fmt.Errorf("dl: %d ranks + %d spares exceed the %d devices of %s", nranks, cfg.Spares, sys.NumDevices(), cfg.System)
	}
	buckets := FuseBuckets(cfg.Model.Tensors, cfg.FusionBytes)
	var maxBucket int64
	for _, b := range buckets {
		if b.Bytes > maxBucket {
			maxBucket = b.Bytes
		}
	}
	ckptTime := CheckpointTime(cfg.Model)
	rate := computeRate(sys.Device(0).Kind)
	computeTime := time.Duration(float64(cfg.BatchSize) / rate * float64(time.Second))

	job := mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, nprocs)
	rt, err := core.NewRuntime(job, core.Options{
		Backend: cfg.Backend, Mode: core.PureCCL, Metrics: cfg.Metrics, Resilience: pol,
	})
	if err != nil {
		return ElasticReport{}, err
	}
	rollbackCtr := cfg.Metrics.Counter("xccl_rollback_steps_total",
		"Training steps re-executed after rollback to the last checkpoint.",
		metrics.Labels{"model": cfg.Model.Name})

	rep := ElasticReport{StartRanks: nranks}
	rep.Ranks, rep.BatchSize, rep.Buckets = nranks, cfg.BatchSize, len(buckets)
	// Partition-aware mode: when the fault plan can cut the network, the
	// loop adds the heal-and-rejoin arc — the fenced minority re-enters
	// through the spare pool after the heal, and the majority polls Grow
	// each step while below full width. Without partition rules every
	// branch below is dead code and the loop is byte-identical to before.
	partAware := rt.HasPartitions()
	// ckpt is the checkpoint store's view of training progress, written by
	// every worker at each (synchronous, globally consistent) checkpoint.
	// Adopted spares restore from it before joining the grown world.
	var ckpt struct {
		step     int
		examples int64
	}
	if err := rt.Run(func(x *core.Comm) {
		p := x.MPI().Proc()
		step := 0
		var examples, examplesAtCkpt int64
		lastCkpt := 0
		if cfg.Spares > 0 {
			if x.MPI().Rank() >= nranks {
				// Spare: park until a Grow adopts this rank. Restoring the
				// replica pays one checkpoint read (same serialization cost
				// as a write) before the join completes, and resumes the
				// training state the checkpoint froze.
				nx, adopted := x.WaitAsSpare(func() {
					p.Sleep(ckptTime)
					step, examples = ckpt.step, ckpt.examples
					lastCkpt, examplesAtCkpt = step, examples
				})
				if !adopted {
					return
				}
				x = nx
				p = x.MPI().Proc()
			} else {
				// Active ranks narrow to their own communicator: a world
				// collective would wait forever on the parked spares.
				active := make([]int, nranks)
				for i := range active {
					active[i] = i
				}
				x = rt.Wrap(x.MPI().Subset(active))
				p = x.MPI().Proc()
			}
		}
		grad := x.Device().MustMalloc(maxBucket)
		defer grad.Free()
		// Persistent mode: one handle per fusion bucket, rebuilt on the
		// survivor communicator after every Shrink (handles are bound to
		// the communicator their Init rendezvoused on; a shrink breaks
		// them permanently). Buckets get distinct arena offsets because
		// re-Init must see stable, non-aliased buffers.
		var handles []*core.PersistentOp
		var arena *device.Buffer
		buildHandles := func() {
			var total int64
			for _, b := range buckets {
				total += b.Bytes
			}
			if arena == nil {
				arena = x.Device().MustMalloc(total)
			}
			handles = handles[:0]
			var off int64
			for _, b := range buckets {
				p.Sleep(cfg.CoordOverhead)
				buf := arena.Slice(off, b.Bytes)
				off += b.Bytes
				h, err := x.AllReduceInitPartitioned(buf, buf, int(b.Bytes/4),
					mpi.Float32, mpi.OpSum, cfg.Partitions)
				if err != nil {
					panic(fmt.Sprintf("dl: persistent init: %v", err))
				}
				handles = append(handles, h)
			}
		}
		if cfg.Persistent {
			buildHandles()
		}
		for step < cfg.Steps {
			if partAware && x.Size() < nranks {
				// Below full width after a quorum shrink: poll Grow once per
				// step until the fenced minority has rejoined the spare pool.
				// Every member calls Grow each round and ErrNoSpares is a
				// shared verdict, so the rounds stay in lockstep. On success
				// everyone rolls back to the pre-cut checkpoint — the state
				// the rejoiners restored — so the merged world is consistent
				// and the examples trajectory matches a fault-free run.
				gx, adopted, gerr := x.Grow(nranks - x.Size())
				if gerr == nil {
					x = gx
					p = x.MPI().Proc()
					if x.Rank() == 0 {
						rep.AdoptedRanks = append(rep.AdoptedRanks, adopted...)
						rep.RollbackSteps += step - lastCkpt
						rollbackCtr.Add(float64(step - lastCkpt))
					}
					step = lastCkpt
					examples = examplesAtCkpt
					if cfg.Persistent {
						buildHandles()
					}
				} else if !errors.Is(gerr, core.ErrNoSpares) {
					panic(fmt.Sprintf("dl: regrow after partition failed: %v", gerr))
				}
			}
			start := p.Now()
			p.Sleep(computeTime)
			if cfg.Persistent {
				for _, h := range handles {
					if h.Do() != nil || x.Failure() != nil {
						break
					}
				}
			} else {
				for _, b := range buckets {
					p.Sleep(cfg.CoordOverhead)
					bucket := grad.Slice(0, b.Bytes)
					x.Allreduce(bucket, bucket, int(b.Bytes/4), mpi.Float32, mpi.OpSum)
					if x.Failure() != nil {
						break
					}
				}
			}
			if x.Failure() != nil {
				if x.Dead() {
					// This rank is the casualty: record and exit; the
					// survivors shrink around it.
					rep.CrashedRanks = append(rep.CrashedRanks, x.MPI().WorldRank())
					return
				}
				nx, serr := x.Shrink() // implies the revoke
				if errors.Is(serr, core.ErrNoQuorum) {
					// Minority side of a network partition: this rank is
					// fenced. Wait out the cut, restore the pre-cut
					// checkpoint (the majority suppresses checkpoints while
					// shrunk, so the store still holds it), and re-enter
					// through the majority's Grow rendezvous.
					gx, ok := x.Rejoin(func() {
						p.Sleep(ckptTime)
						step, examples = ckpt.step, ckpt.examples
						lastCkpt, examplesAtCkpt = step, examples
					})
					if !ok {
						// The cut never heals (or the job drained): this
						// rank's training is over.
						return
					}
					x = gx
					p = x.MPI().Proc()
					if cfg.Persistent {
						buildHandles()
					}
					continue
				}
				if serr != nil {
					panic(fmt.Sprintf("dl: shrink failed: %v", serr))
				}
				x = nx
				p = x.MPI().Proc()
				if cfg.Spares > 0 && x.Size() < nranks {
					// Recover to full width: adopt spares for the lost
					// ranks. An exhausted pool is not fatal — training
					// continues at the shrunk width, like the no-spare mode.
					gx, adopted, gerr := x.Grow(nranks - x.Size())
					if gerr == nil {
						x = gx
						p = x.MPI().Proc()
						if x.Rank() == 0 {
							rep.AdoptedRanks = append(rep.AdoptedRanks, adopted...)
						}
					} else if !errors.Is(gerr, core.ErrNoSpares) {
						panic(fmt.Sprintf("dl: grow failed: %v", gerr))
					}
				}
				if cfg.Persistent {
					// The old handles died with the revoked communicator;
					// re-Init on the survivors (same bucket plan, same
					// arena, fresh CCL communicator and schedules).
					buildHandles()
				}
				if x.Rank() == 0 {
					rep.RollbackSteps += step - lastCkpt
					rollbackCtr.Add(float64(step - lastCkpt))
				}
				step = lastCkpt
				examples = examplesAtCkpt
				continue
			}
			step++
			examples += int64(x.Size()) * int64(cfg.BatchSize)
			if x.Rank() == 0 {
				rep.StepLatency = append(rep.StepLatency, p.Now()-start)
				rep.Loss = append(rep.Loss, lossAfter(examples))
			}
			if step%cfg.CheckpointEvery == 0 && step < cfg.Steps &&
				!(partAware && x.Size() < nranks) {
				// Synchronous checkpoint: every worker serializes its
				// replica to host storage before the next step. While the
				// world is shrunk by a partition the checkpoint is
				// suppressed: the store must keep the pre-cut state the
				// fenced minority will restore from, and the regrow rolls
				// the majority back to that same point.
				p.Sleep(ckptTime)
				lastCkpt, examplesAtCkpt = step, examples
				ckpt.step, ckpt.examples = step, examples
				if x.Rank() == 0 {
					rep.Checkpoints++
				}
			}
		}
		if x.Rank() == 0 {
			rep.FinalRanks = x.Size()
		}
	}); err != nil {
		return ElasticReport{}, err
	}
	if len(rep.StepLatency) == 0 {
		return ElasticReport{}, fmt.Errorf("dl: no steps completed")
	}
	var total time.Duration
	for _, st := range rep.StepLatency {
		total += st
	}
	rep.StepTime = total / time.Duration(len(rep.StepLatency))
	rep.Shrinks = rt.Stats().Shrinks
	rep.Grows = rt.Stats().Grows
	rep.Partitions = rt.Stats().Partitions
	rep.FencedRanks = rt.Stats().FencedRanks
	rep.Epoch = rt.Stats().Epoch
	rep.SuspectedAt = rt.Suspected()
	rep.ImgPerSec = float64(cfg.BatchSize*rep.FinalRanks) / rep.StepTime.Seconds()
	return rep, nil
}
