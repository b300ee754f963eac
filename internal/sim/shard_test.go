package sim

import (
	"errors"
	"testing"
	"time"
)

// ringWorld builds the same token-ring model partitioned over a varying
// number of shards: nodes pass an accumulating token around a ring, each hop
// priced hopDelay (>= the engine lookahead), with per-node local busy-work
// sleeps to skew shard clocks. Virtual completion time and the accumulated
// sum must be identical for every shard count.
func ringWorld(t *testing.T, nodes, shards int, hop Time) (sum uint64, virt Time) {
	t.Helper()
	s := NewSharded(shards, hop)
	mail := make([]*Chan[uint64], nodes)
	shardOf := func(node int) int { return node * shards / nodes }
	for n := 0; n < nodes; n++ {
		mail[n] = NewChan[uint64](s.Kernel(shardOf(n)), 4)
	}
	var got uint64
	var last Time
	for n := 0; n < nodes; n++ {
		n := n
		k := s.Kernel(shardOf(n))
		k.Spawn("node", func(p *Proc) {
			// Skewed local work before joining the ring.
			p.Sleep(Time(n%3) * 100 * time.Nanosecond)
			if n == 0 {
				// Two full laps.
				v := uint64(1)
				next := (n + 1) % nodes
				s.Inject(shardOf(n), shardOf(next), p.Now()+hop, func() {
					if !mail[next].TrySend(v) {
						panic("mailbox full")
					}
				})
				for lap := 0; lap < 2; lap++ {
					v = mail[n].Recv(p)
					if lap == 0 {
						next := (n + 1) % nodes
						w := v + 1
						s.Inject(shardOf(n), shardOf(next), p.Now()+hop, func() {
							if !mail[next].TrySend(w) {
								panic("mailbox full")
							}
						})
					}
				}
				got, last = v, p.Now()
				return
			}
			for lap := 0; lap < 2; lap++ {
				v := mail[n].Recv(p)
				p.Sleep(50 * time.Nanosecond) // per-hop processing
				next := (n + 1) % nodes
				w := v + 1
				s.Inject(shardOf(n), shardOf(next), p.Now()+hop, func() {
					if !mail[next].TrySend(w) {
						panic("mailbox full")
					}
				})
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return got, last
}

func TestShardedRingDeterministic(t *testing.T) {
	const nodes = 8
	const hop = 2500 * time.Nanosecond
	baseSum, baseVirt := ringWorld(t, nodes, 1, hop)
	if baseSum != uint64(2*nodes) {
		t.Fatalf("serial sum = %d, want %d", baseSum, 2*nodes)
	}
	for _, shards := range []int{2, 4, 8} {
		sum, virt := ringWorld(t, nodes, shards, hop)
		if sum != baseSum || virt != baseVirt {
			t.Errorf("shards=%d: (sum,virt) = (%d,%v), serial = (%d,%v)",
				shards, sum, virt, baseSum, baseVirt)
		}
	}
}

func TestShardedBarrierAdvanceFallback(t *testing.T) {
	// Zero lookahead: the engine must fall back to one-tick windows and
	// still produce the serial result.
	const nodes = 4
	baseSum, baseVirt := ringWorld(t, nodes, 1, 0)
	sum, virt := ringWorld(t, nodes, 4, 0)
	if sum != baseSum || virt != baseVirt {
		t.Fatalf("barrier-advance: (sum,virt) = (%d,%v), serial = (%d,%v)",
			sum, virt, baseSum, baseVirt)
	}
}

func TestShardedInjectLookaheadViolationPanics(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	s.Kernel(0).Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Inject below lookahead did not panic")
			}
		}()
		s.Inject(0, 1, p.Now()+time.Nanosecond, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedCrossShardDeadlock(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	ev := NewEvent(s.Kernel(1))
	s.Kernel(1).Spawn("waiter", func(p *Proc) {
		ev.Wait(p) // nobody ever fires this
	})
	s.Kernel(0).Spawn("worker", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
	})
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter(event)" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestShardedRunFor(t *testing.T) {
	// A Stop on one shard must end the window loop exactly where the serial
	// kernel's RunFor stops; the other shard finishes its window and halts.
	const every, horizon = time.Millisecond, 10 * time.Millisecond
	ticker := func(k *Kernel, ticks *int) {
		k.SpawnDaemon("ticker", func(p *Proc) {
			for {
				p.Sleep(every)
				*ticks++
			}
		})
	}
	var serial int
	k := NewKernel()
	ticker(k, &serial)
	if err := k.RunFor(horizon); err != nil {
		t.Fatal(err)
	}

	var ticks [2]int
	s := NewSharded(2, time.Microsecond)
	ticker(s.Kernel(0), &ticks[0])
	ticker(s.Kernel(1), &ticks[1])
	stop := s.Kernel(0)
	stop.After(horizon, stop.Stop)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks[0] != serial || serial == 0 {
		t.Fatalf("ticks: serial %d, sharded shard 0 %d", serial, ticks[0])
	}
	if ticks[1] != serial+1 || s.Now() != horizon {
		t.Fatalf("shard 1 ran %d ticks to %v, want %d to %v", ticks[1], s.Now(), serial+1, horizon)
	}
}
