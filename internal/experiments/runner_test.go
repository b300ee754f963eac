package experiments

import (
	"runtime"
	"testing"

	"mpixccl/internal/leakcheck"
)

// TestRunAllMatchesSerial pins the parallel runner's determinism contract:
// because every experiment owns its own simulation kernel, a concurrent run
// must produce byte-identical output to a serial run, in the requested order.
func TestRunAllMatchesSerial(t *testing.T) {
	ids := []string{"table1", "fig1a", "fig1b"}
	serial := RunAll(ids, Quick, nil, 1)
	par := RunAll(ids, Quick, nil, 0)
	if len(serial) != len(ids) || len(par) != len(ids) {
		t.Fatalf("got %d serial / %d parallel results, want %d", len(serial), len(par), len(ids))
	}
	for i, id := range ids {
		if serial[i].ID != id || par[i].ID != id {
			t.Fatalf("result %d: ids %q (serial) / %q (parallel), want %q", i, serial[i].ID, par[i].ID, id)
		}
		if serial[i].Err != nil {
			t.Fatalf("%s: serial run failed: %v", id, serial[i].Err)
		}
		if par[i].Err != nil {
			t.Fatalf("%s: parallel run failed: %v", id, par[i].Err)
		}
		if serial[i].Output != par[i].Output {
			t.Errorf("%s: parallel output differs from serial output", id)
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	results := RunAll([]string{"table1", "no-such-figure"}, Quick, nil, 2)
	if results[0].Err != nil {
		t.Errorf("table1 failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown experiment id did not report an error")
	}
}

// One process runs exhibits back to back, as xcclbench -exp all does. Each
// must leave nothing behind once it returns: no goroutine of its worlds and
// no device memory, whatever ran before it.
func TestExhibitsFreeTheirWorlds(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, id := range []string{"fig1a", "fig5", "fig7", "fig1a"} {
		if _, err := Run(id, Quick); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := leakcheck.Check(base, 100); err != nil {
			t.Fatalf("after %s: %v", id, err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.Logf("after %s: %d goroutines (baseline %d), live heap %.1f MB",
			id, runtime.NumGoroutine(), base, float64(ms.HeapAlloc)/(1<<20))
	}
}
