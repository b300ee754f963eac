package fault

import (
	"strings"
	"testing"
	"time"
)

const us = time.Microsecond

// Construction-time validation: partition rules that could never cut, cut
// nothing, or contradict themselves are rejected with descriptive errors.
func TestCheckPartitionRule(t *testing.T) {
	cases := []struct {
		name    string
		rule    PartitionRule
		wantErr string // substring; "" means valid
	}{
		{"valid node cut", PartitionRule{Name: "a", Nodes: []int{1}}, ""},
		{"valid rank cut", PartitionRule{Name: "b", Ranks: []int{0, 3}}, ""},
		{"valid windowed", PartitionRule{Name: "c", Nodes: []int{0}, From: 10 * us, Until: 20 * us}, ""},
		{"probability zero is deterministic", PartitionRule{Name: "d", Nodes: []int{1}, Probability: 0}, ""},
		{"probability one always fires", PartitionRule{Name: "e", Nodes: []int{1}, Probability: 1}, ""},
		{"neither nodes nor ranks", PartitionRule{Name: "f"}, "neither Nodes nor Ranks"},
		{"both nodes and ranks", PartitionRule{Name: "g", Nodes: []int{1}, Ranks: []int{2}}, "both Nodes and Ranks"},
		{"heal equals cut", PartitionRule{Name: "h", Nodes: []int{1}, From: 10 * us, Until: 10 * us}, "would never fire"},
		{"heal before cut", PartitionRule{Name: "i", Nodes: []int{1}, From: 10 * us, Until: 5 * us}, "would never fire"},
		{"probability below zero", PartitionRule{Name: "j", Nodes: []int{1}, Probability: -0.1}, "outside [0, 1]"},
		{"probability above one", PartitionRule{Name: "k", Nodes: []int{1}, Probability: 1.5}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckPartitionRule(tc.rule)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckPartitionRule(%+v) = %v, want nil", tc.rule, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckPartitionRule(%+v) = %v, want error containing %q", tc.rule, err, tc.wantErr)
			}
		})
	}
}

// The probability coin is drawn exactly once, at AddPartitionRule time:
// the verdict is fixed before any query, identical for every (pair, time)
// probe order, and reproducible from the seed alone. This is the property
// that keeps partition verdicts consistent across ranks.
func TestPartitionProbabilityDrawnOnceAtAdd(t *testing.T) {
	rule := PartitionRule{Name: "maybe", Nodes: []int{1}, Probability: 0.5}
	armed := 0
	for seed := uint64(1); seed <= 64; seed++ {
		a := NewPlan(seed).AddPartitionRule(rule)
		b := NewPlan(seed).AddPartitionRule(rule)
		// Same seed, same verdict — regardless of query count or order.
		for i := 0; i < 3; i++ {
			if a.Severed(0, 1, 0) != b.Severed(0, 1, 0) {
				t.Fatalf("seed %d: verdict diverged between identical plans", seed)
			}
		}
		if a.Severed(0, 1, 0) != a.Severed(1, 0, time.Second) {
			t.Fatalf("seed %d: verdict changed with query time or direction", seed)
		}
		if a.Severed(0, 1, 0) {
			armed++
		}
	}
	if armed == 0 || armed == 64 {
		t.Errorf("P=0.5 armed %d/64 rules: the coin is not being consulted", armed)
	}
	// The edge probabilities are deterministic, never coin-consulting:
	// 0 follows the plan convention (always fires), 1 always fires.
	for _, p := range []float64{0, 1} {
		plan := NewPlan(7).AddPartitionRule(PartitionRule{Name: "edge", Nodes: []int{1}, Probability: p})
		if !plan.Severed(0, 1, 0) {
			t.Errorf("Probability %v rule did not fire", p)
		}
	}
}

// Node cuts and rank cuts follow their own boundaries, respect the time
// window, and report heal times through PartitionedUntil.
func TestPartitionWindowAndScope(t *testing.T) {
	p := NewPlan(1).
		AddPartitionRule(PartitionRule{Name: "nodes", Nodes: []int{1}, From: 10 * us, Until: 20 * us}).
		AddPartitionRule(PartitionRule{Name: "ranks", Ranks: []int{5}, From: 30 * us})

	// Node scope: only routes crossing the {1} | rest boundary sever, and
	// only inside [From, Until).
	for _, tc := range []struct {
		src, dst int
		at       time.Duration
		want     bool
	}{
		{0, 1, 9 * us, false},  // before the cut
		{0, 1, 10 * us, true},  // cut opens (inclusive)
		{1, 0, 15 * us, true},  // symmetric
		{0, 2, 15 * us, false}, // same side, not cut
		{0, 1, 20 * us, false}, // healed (exclusive)
	} {
		if got := p.Severed(tc.src, tc.dst, tc.at); got != tc.want {
			t.Errorf("Severed(%d, %d, %v) = %v, want %v", tc.src, tc.dst, tc.at, got, tc.want)
		}
	}
	// Rank scope is invisible to the node query and vice versa.
	if p.Severed(5, 0, 40*us) {
		t.Error("rank-scoped rule leaked into the node-scoped Severed query")
	}
	if p.RanksSevered(0, 1, 15*us) {
		t.Error("node-scoped rule leaked into RanksSevered")
	}
	if !p.RanksSevered(5, 2, 30*us) || p.RanksSevered(5, 2, 29*us) {
		t.Error("rank-scoped window wrong")
	}

	// PartitionedUntil: inside the windowed cut it reports the heal time;
	// inside the permanent cut it reports heals=false; outside any cut it
	// reports heals=true immediately.
	if until, heals := p.PartitionedUntil(15 * us); !heals || until != 20*us {
		t.Errorf("PartitionedUntil(15us) = %v, %v; want 20us, true", until, heals)
	}
	if _, heals := p.PartitionedUntil(35 * us); heals {
		t.Error("PartitionedUntil inside a permanent cut reported a heal")
	}
	if until, heals := p.PartitionedUntil(25 * us); !heals || until != 0 {
		t.Errorf("PartitionedUntil(25us) = %v, %v; want 0, true (no active cut)", until, heals)
	}
	if !p.PartitionedNow(12*us) || p.PartitionedNow(25*us) {
		t.Error("PartitionedNow window wrong")
	}
	if !p.HasPartitions() {
		t.Error("HasPartitions = false with two armed rules")
	}
}

// A partition and a crash on the same rank compose: the rank is dead on
// both sides of the cut, and each fault answers its own oracle without
// masking the other. Fired() credits the partition once it is observed.
func TestPartitionAndCrashCompose(t *testing.T) {
	p := NewPlan(1).
		AddRule(Rule{Name: "crash1", Crash: true, Ranks: []int{1}, Op: "allreduce", After: 1}).
		AddPartitionRule(PartitionRule{Name: "cut1", Ranks: []int{1}, From: 10 * us})

	// Trip the crash: second matching call fires it.
	if p.OpCrash("nccl", "allreduce", 1, 5*us) {
		t.Fatal("crash fired before its After budget")
	}
	if !p.OpCrash("nccl", "allreduce", 1, 6*us) {
		t.Fatal("crash did not fire")
	}
	if !p.RankDead(1, 7*us) {
		t.Fatal("rank 1 not dead after its crash")
	}
	// The cut opens while the rank is already dead: both oracles hold.
	if !p.RanksSevered(1, 0, 12*us) {
		t.Error("partition did not sever the dead rank (faults must compose)")
	}
	if !p.RankDead(1, 12*us) {
		t.Error("crash verdict lost once the partition opened")
	}
	if p.Fired("cut1") != 1 {
		t.Errorf("Fired(cut1) = %d, want 1", p.Fired("cut1"))
	}
	if p.Fired("crash1") != 1 {
		t.Errorf("Fired(crash1) = %d, want 1", p.Fired("crash1"))
	}
}
