package main

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// A pool is a seeded run of little-endian float32 values, each an integer
// in [1, 8]. Every payload is a window of a pool, loaded by bulk copy.
// Sums of up to 2^21 such values are integers below 2^24, exact in
// float32 whatever order a reduction adds them in, so results compare
// bytewise against a sum computed here.
func newPool(rng *rand.Rand, elems int) []byte {
	b := make([]byte, 4*elems)
	for i := 0; i < elems; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(1+rng.Intn(8))))
	}
	return b
}

// offsets draws one element offset per rank in [0, limit).
func offsets(rng *rand.Rand, n, limit int) []int {
	out := make([]int, n)
	for r := range out {
		out[r] = rng.Intn(limit)
	}
	return out
}

// f32 reads element i of a float32 byte slice.
func f32(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
}

// sumWindows returns, as bytes, the elementwise sum of count elements of
// pool starting at each offset: the result a sum-reduction of those
// windows must produce.
func sumWindows(pool []byte, offs []int, count int) []byte {
	sum := make([]float32, count)
	for _, off := range offs {
		w := pool[4*off:]
		for i := range sum {
			sum[i] += f32(w, i)
		}
	}
	out := make([]byte, 4*count)
	for i, v := range sum {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// tile fills dst with pool, starting at byte offset off and wrapping
// around, using bulk copies.
func tile(dst, pool []byte, off int) {
	for len(dst) > 0 {
		n := copy(dst, pool[off:])
		dst = dst[n:]
		off = 0
	}
}
