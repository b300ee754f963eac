//go:build !amd64 || race

package elem

// sumF32 has no vector kernel on this build: off amd64, and under -race,
// whose detector cannot see reads made from assembly. It returns false and
// reduceTyped runs.
func sumF32(d, x, y []float32) bool { return false }
