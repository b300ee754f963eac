package experiments

import (
	"testing"

	"mpixccl/internal/leakcheck"
)

// TestMain requires every world the suite built to be gone once it ends:
// no goroutine beyond the baseline, and a small live heap.
func TestMain(m *testing.M) { leakcheck.Main(m) }
