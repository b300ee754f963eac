package core

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/trace"
)

// healthMonitor is the proactive heartbeat failure detector
// (Resilience.HeartbeatInterval). Every rank runs a daemon that sends one
// control-message heartbeat to each live peer per interval; the shared
// observation state models reception (the simulation is cooperatively
// scheduled, so the maps need no locking). Suspicion is phi-accrual style:
// each rank's beat inter-arrival statistics (EWMA mean and absolute
// deviation) calibrate a per-peer threshold, so a link-degradation window
// that slows every beat widens the model instead of killing the peer,
// while a fail-stopped rank's silence crosses the threshold within a
// couple of intervals. A crossing is confirmed against the fail-stop
// oracle before it becomes a verdict: confirmed suspicions feed the same
// ErrRankDead path as the collective watchdog (see Comm.suspectErr), and
// unconfirmed ones retract by widening the peer's model — the detector
// never kills a rank that is merely slow.
type healthMonitor struct {
	rt        *Runtime
	interval  time.Duration
	threshold float64 // suspicion threshold in deviations beyond the mean
	stopped   bool

	last      map[int]time.Duration // world rank -> virtual time of last beat
	mean      map[int]time.Duration // world rank -> EWMA beat inter-arrival
	dev       map[int]time.Duration // world rank -> EWMA absolute deviation
	suspected map[int]time.Duration // world rank -> virtual time of confirmed suspicion
	cutNoted  map[[2]int]bool       // (witness, peer) -> partitioned outcome noted for the current cut
}

func newHealthMonitor(rt *Runtime, interval time.Duration, threshold float64) *healthMonitor {
	return &healthMonitor{
		rt:        rt,
		interval:  interval,
		threshold: threshold,
		last:      make(map[int]time.Duration),
		mean:      make(map[int]time.Duration),
		dev:       make(map[int]time.Duration),
		suspected: make(map[int]time.Duration),
		cutNoted:  make(map[[2]int]bool),
	}
}

// start spawns the heartbeat daemon for one rank's world communicator.
// Daemons are staggered across the interval so the beats do not arrive as
// one synchronized burst, and they stop beating the moment their rank
// fail-stops — that silence is exactly what the peers detect.
func (hm *healthMonitor) start(c *mpi.Comm) {
	k := c.Job().Fabric().Kernel()
	self := c.WorldRank()
	size := c.Size()
	k.SpawnDaemon(fmt.Sprintf("xccl/heartbeat%d", self), func(p *sim.Proc) {
		p.Sleep(hm.interval * time.Duration(self+1) / time.Duration(size+1))
		if hm.stopped {
			return
		}
		hm.beat(c, self, p)
		for !hm.stopped {
			p.Sleep(hm.interval)
			if hm.stopped {
				return
			}
			if fs := c.Job().Fabric().FailStop(); fs != nil && fs.RankDead(self, p.Now()) {
				return
			}
			hm.beat(c, self, p)
			hm.check(c, self, p)
		}
	})
}

// stop winds the daemons down: each returns at its next wakeup.
func (hm *healthMonitor) stop() { hm.stopped = true }

// beat sends one heartbeat to every unsuspected peer and records the
// sender's beat epoch in the shared observation state.
func (hm *healthMonitor) beat(c *mpi.Comm, self int, p *sim.Proc) {
	fab := c.Job().Fabric()
	for r := 0; r < c.Size(); r++ {
		wr := c.WorldRankOf(r)
		if wr == self {
			continue
		}
		if _, bad := hm.suspected[wr]; bad {
			continue
		}
		// Routing failures are ignored: a missed beat is indistinguishable
		// from a late one, which is what the accrual model is for.
		_, _ = fab.TryControlMsg(p, c.Device(), c.RankDevice(r))
	}
	hm.observe(self, p.Now())
	hm.rt.opts.Metrics.Counter("xccl_heartbeats_sent_total",
		"Heartbeat rounds sent by the failure detector.",
		metrics.Labels{"backend": string(hm.rt.kind)}).Inc()
}

// observe folds one beat into the rank's inter-arrival model.
func (hm *healthMonitor) observe(rank int, now time.Duration) {
	if lastT, ok := hm.last[rank]; ok {
		ia := now - lastT
		m, d := hm.mean[rank], hm.dev[rank]
		if m == 0 {
			m, d = ia, ia/8
		} else {
			m = (4*m + ia) / 5
			diff := ia - m
			if diff < 0 {
				diff = -diff
			}
			d = (4*d + diff) / 5
		}
		hm.mean[rank], hm.dev[rank] = m, d
	}
	hm.last[rank] = now
}

// check accrues suspicion against peers whose beats have stopped. A peer
// whose silence exceeds threshold deviations beyond its mean inter-arrival
// is checked against the fail-stop oracle: dead peers become confirmed
// suspicions, live ones (jitter, brownout, straggler) get a fresh lease
// and a widened model so the same jitter does not re-trip immediately.
func (hm *healthMonitor) check(c *mpi.Comm, self int, p *sim.Proc) {
	now := p.Now()
	fs := c.Job().Fabric().FailStop()
	for r := 0; r < c.Size(); r++ {
		wr := c.WorldRankOf(r)
		if wr == self {
			continue
		}
		if _, bad := hm.suspected[wr]; bad {
			continue
		}
		if hm.rt.partitioner() != nil && hm.rt.severedPair(c, self, r, now) {
			// The peer is across an active cut: unreachable, not dead. Note
			// the episode once per (witness, peer) and skip phi accounting —
			// partition silence must never decay into a death verdict (the
			// quorum Shrink, not the detector, excludes severed ranks).
			key := [2]int{self, wr}
			if !hm.cutNoted[key] {
				hm.cutNoted[key] = true
				hm.noteSuspicion(wr, self, now, "partitioned")
			}
			continue
		}
		delete(hm.cutNoted, [2]int{self, wr})
		lastT, ok := hm.last[wr]
		if !ok {
			continue
		}
		m := hm.mean[wr]
		if m == 0 {
			continue
		}
		d := hm.dev[wr]
		if d < m/8 {
			d = m / 8
		}
		phi := float64(now-lastT-m) / float64(d)
		if phi < hm.threshold {
			continue
		}
		if fs != nil && fs.RankDead(wr, now) {
			hm.suspected[wr] = now
			hm.noteSuspicion(wr, self, now, "confirmed")
		} else {
			hm.last[wr] = now
			hm.mean[wr] = m * 2
			hm.noteSuspicion(wr, self, now, "retracted")
		}
	}
}

// noteSuspicion publishes one suspicion outcome. The trace record names
// the witnessing rank; Bytes carries the suspected peer's world rank.
func (hm *healthMonitor) noteSuspicion(peer, witness int, now time.Duration, outcome string) {
	rt := hm.rt
	if outcome == "confirmed" {
		rt.stats.Suspicions++
	}
	rt.opts.Metrics.Counter("xccl_suspicions_total",
		"Heartbeat suspicions by outcome (confirmed dead, retracted false positive, or partitioned peer).",
		metrics.Labels{"backend": string(rt.kind), "outcome": outcome}).Inc()
	event := "rank_suspected"
	switch outcome {
	case "retracted":
		event = "suspicion_retracted"
	case "partitioned":
		event = "rank_partitioned"
	}
	rec := trace.Record{
		Op: "heartbeat", Backend: string(rt.kind), Rank: witness,
		Event: event, Start: now, Bytes: int64(peer),
	}
	rt.emit(rec)
}

// suspectErr fast-fails a dispatch when the heartbeat detector has
// confirmed a member of this communicator dead: the caller gets the same
// ErrRankDead verdict the watchdog would produce, minus the watchdog's
// full timeout wait. Nil when the detector is off or every member is
// healthy.
func (x *Comm) suspectErr(op OpKind) error {
	hm := x.rt.health
	if hm == nil || len(hm.suspected) == 0 {
		return nil
	}
	self := x.mpi.WorldRank()
	for r := 0; r < x.Size(); r++ {
		wr := x.mpi.WorldRankOf(r)
		if wr == self {
			continue
		}
		if t, ok := hm.suspected[wr]; ok {
			return &ccl.Error{Backend: string(x.rt.kind), Result: ccl.ErrRankDead,
				Op: string(op), Rank: wr,
				Msg: fmt.Sprintf("heartbeat detector suspected rank %d dead at %v", wr, t)}
		}
	}
	return nil
}
