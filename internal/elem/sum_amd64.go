//go:build amd64 && !race

package elem

// hasAVX reports whether the CPU has AVX and the OS saves YMM state
// (sum_amd64.s).
func hasAVX() bool

// addF32x32 sets d[i] = x[i] + y[i] for i < 32*blocks with AVX adds
// (sum_amd64.s). The caller bounds-checks all three ranges.
//
//go:noescape
func addF32x32(d, x, y *float32, blocks int)

// useAVX is the one-time CPU probe.
var useAVX = hasAVX()

// sumF32 sets d[i] = x[i] + y[i] over len(d) elements, bitwise equal to
// reduceTyped(OpSum, d, x, y): the vector kernel covers the largest
// multiple of 32 elements and reduceTyped the tail. d may alias x or y
// exactly. It returns false, having written nothing, when the CPU lacks AVX.
func sumF32(d, x, y []float32) bool {
	if !useAVX {
		return false
	}
	n := len(d)
	x, y = x[:n], y[:n]
	v := n &^ 31
	if v > 0 {
		addF32x32(&d[0], &x[0], &y[0], v/32)
	}
	reduceTyped(OpSum, d[v:], x[v:], y[v:])
	return true
}
