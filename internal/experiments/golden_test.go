package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden file pins the virtual-time results of every exhibit at Quick
// scale. It was generated from the seed simulation kernel (before the
// hot-path overhaul) and must never change under a pure performance
// optimization: wall-clock time may drop, virtual time may not move.
//
// Regenerate (only after an intentional model change) with:
//
//	go test ./internal/experiments -run TestGoldenVirtualTime -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_quick.json from the current engine (model changes only)")

const goldenPath = "testdata/golden_quick.json"

// goldenVerifyIDs is the subset checked on every `go test` run. The
// application exhibits (fig7–fig10) take minutes each and are verified only
// when XCCL_GOLDEN_FULL is set (scripts/bench.sh does this); fig6 is the
// heaviest exhibit still checked by default and is skipped under -short.
func goldenVerifyIDs() []string {
	ids := []string{"table1", "fig1a", "fig1b", "fig3", "fig4", "fig5", "resilience", "elastic"}
	if !testing.Short() {
		ids = append(ids, "fig6", "partition")
	}
	if os.Getenv("XCCL_GOLDEN_FULL") != "" {
		ids = append(ids, "fig7", "fig8", "fig9", "fig10")
	}
	return ids
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	return golden
}

// TestGoldenVirtualTime proves the optimized engine reproduces the seed's
// virtual-time results bit-for-bit: every exhibit's formatted output (which
// embeds each series' virtual latencies) must match the pinned snapshot.
func TestGoldenVirtualTime(t *testing.T) {
	if *updateGolden {
		golden := map[string]string{}
		for _, id := range IDs() {
			out, err := Run(id, Quick)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			golden[id] = out
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten with %d exhibits", len(golden))
		return
	}
	golden := readGolden(t)
	for _, id := range goldenVerifyIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			want, ok := golden[id]
			if !ok {
				t.Fatalf("golden file has no entry for %s", id)
			}
			got, err := Run(id, Quick)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("virtual-time results drifted from the seed golden.\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}
