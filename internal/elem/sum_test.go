package elem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// noVectorSum is the skip message when sumF32 has no vector kernel.
const noVectorSum = "sumF32: no vector kernel on this build or CPU (needs amd64, AVX and no -race); vector-vs-portable comparison skipped"

// f32Specials are bit patterns where an add can differ between kernels:
// quiet and signaling NaNs with different payloads and signs, signed zeros,
// infinities, subnormals, and the largest finite value (which overflows).
var f32Specials = []uint32{
	0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff812345, 0x7fbfffff,
	0x00000000, 0x80000000, 0x7f800000, 0xff800000,
	0x00000001, 0x807fffff, 0x00400000, 0x80000003,
	0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000,
}

// f32At returns n float32s starting off elements past a 32-byte boundary,
// so any off in 1..7 is 4-byte aligned but not 32-byte aligned.
func f32At(n, off int) []float32 {
	back := make([]float32, n+off+8)
	s := int((-uintptr(unsafe.Pointer(&back[0])) & 31) / 4)
	return back[s+off : s+off+n]
}

// bitsOf views f's storage as raw bit patterns.
func bitsOf(f []float32) []uint32 {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&f[0])), len(f))
}

// sumF32Diff runs sumF32 and reduceTyped(OpSum) on the operand bit
// patterns xs and ys, placed off elements past a 32-byte boundary, with d
// apart from both operands, d == x and d == y. It describes the first
// element whose result bits differ, or returns "". vector is false when
// sumF32 has no vector kernel here.
func sumF32Diff(xs, ys []uint32, off int) (diff string, vector bool) {
	n := len(xs)
	for _, alias := range []string{"d apart", "d == x", "d == y"} {
		run := func(kernel func(d, x, y []float32)) []uint32 {
			x, y, d := f32At(n, off), f32At(n, off), f32At(n, off)
			copy(bitsOf(x), xs)
			copy(bitsOf(y), ys)
			switch alias {
			case "d == x":
				d = x
			case "d == y":
				d = y
			}
			kernel(d, x, y)
			return bitsOf(d)
		}
		got := run(func(d, x, y []float32) { vector = sumF32(d, x, y) })
		if !vector {
			return "", false
		}
		want := run(func(d, x, y []float32) { reduceTyped(OpSum, d, x, y) })
		for i := range want {
			if got[i] != want[i] {
				return fmt.Sprintf("%s, n=%d, offset %d, element %d: %#08x + %#08x = %#08x, portable loop %#08x",
					alias, n, off, i, xs[i], ys[i], got[i], want[i]), true
			}
		}
	}
	return "", true
}

// f32SumOperands builds n operand pairs from rng: random bit patterns,
// specials against random values, and specials against specials.
func f32SumOperands(rng *rand.Rand, n int) (xs, ys []uint32) {
	xs, ys = make([]uint32, n), make([]uint32, n)
	special := func() uint32 { return f32Specials[rng.Intn(len(f32Specials))] }
	for i := range xs {
		xs[i], ys[i] = rng.Uint32(), rng.Uint32()
		switch i % 4 {
		case 1:
			xs[i] = special()
		case 2:
			ys[i] = special()
		case 3:
			xs[i], ys[i] = special(), special()
		}
	}
	return xs, ys
}

// The vector float32 sum must be bitwise equal to the portable loop, NaN
// payloads included: every length 0–300 (so every tail length after zero
// to nine full 32-element blocks), views at every 4-byte offset within a
// 32-byte line, and all three aliasing forms. A final case adds every
// special to every special inside full vector blocks.
func TestSumF32MatchesPortableBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		xs, ys := f32SumOperands(rng, n)
		for off := 0; off < 8; off++ {
			diff, vector := sumF32Diff(xs, ys, off)
			if !vector {
				t.Skip(noVectorSum)
			}
			if diff != "" {
				t.Fatal(diff)
			}
		}
	}
	var xs, ys []uint32
	for _, a := range f32Specials {
		for _, b := range f32Specials {
			xs, ys = append(xs, a), append(ys, b)
		}
	}
	for off := 0; off < 8; off++ {
		if diff, _ := sumF32Diff(xs, ys, off); diff != "" {
			t.Fatal(diff)
		}
	}
}

// FuzzReduceToF32 compares the vector float32 sum with the portable loop
// bit for bit on arbitrary operand bytes (little-endian float32s, the
// shorter operand sets the length) at an arbitrary 4-byte offset. Its
// seed corpus runs under plain go test.
func FuzzReduceToF32(f *testing.F) {
	pack := func(bits []uint32) []byte {
		b := make([]byte, 4*len(bits))
		for i, v := range bits {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 300} {
		xs, ys := f32SumOperands(rng, n)
		f.Add(pack(xs), pack(ys), uint8(n))
	}
	f.Add(pack(f32Specials), pack(append(f32Specials[1:], f32Specials[0])), uint8(3))
	f.Fuzz(func(t *testing.T, xb, yb []byte, off uint8) {
		n := min(len(xb), len(yb)) / 4
		xs, ys := make([]uint32, n), make([]uint32, n)
		for i := range xs {
			xs[i] = binary.LittleEndian.Uint32(xb[4*i:])
			ys[i] = binary.LittleEndian.Uint32(yb[4*i:])
		}
		diff, vector := sumF32Diff(xs, ys, int(off%8))
		if !vector {
			t.Skip(noVectorSum)
		}
		if diff != "" {
			t.Fatal(diff)
		}
	})
}

// BenchmarkReduceToF32 sizes the float32 sum kernels on 256 KiB operands,
// the ring segment of a 4 MiB allreduce on 16 ranks: hot, where the same
// three buffers stay in cache, and pool, where each call takes the next
// three buffers of a 128 MiB pool and so reads from memory. Throughput
// counts one operand's bytes per call, like perfbench's
// elem.reduce_gb_per_s. Run with
//
//	go test -run '^$' -bench BenchmarkReduceToF32 ./internal/elem
func BenchmarkReduceToF32(b *testing.B) {
	const (
		segment = 256 << 10 / 4 // float32s per operand
		buffers = 128 << 20 / 4 / segment
	)
	pool := make([]float32, buffers*segment)
	for i := range pool {
		pool[i] = float32(i % 1024)
	}
	buf := func(i int) []float32 { i %= buffers; return pool[i*segment : (i+1)*segment] }
	kernels := []struct {
		name string
		run  func(d, x, y []float32) bool
	}{
		{"vector", sumF32},
		{"portable", func(d, x, y []float32) bool { reduceTyped(OpSum, d, x, y); return true }},
	}
	for _, k := range kernels {
		for _, m := range []struct {
			name   string
			stride int // buffers to advance per call
		}{{"hot-256KiB", 0}, {"pool-128MiB", 3}} {
			b.Run(k.name+"/"+m.name, func(b *testing.B) {
				if !k.run(buf(0), buf(1), buf(2)) {
					b.Skip(noVectorSum)
				}
				b.SetBytes(4 * segment)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i * m.stride
					k.run(buf(j), buf(j+1), buf(j+2))
				}
			})
		}
	}
}
