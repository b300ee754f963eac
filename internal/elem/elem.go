// Package elem implements elementwise typed operations on raw byte buffers:
// the compute kernels shared by the MPI runtime and the CCL backends for
// reductions over device memory. Values are little-endian, matching what a
// real device buffer of scalars would hold.
package elem

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the host lays out multi-byte scalars in
// little-endian order, in which case a []byte buffer can be reinterpreted
// as a typed slice directly. On big-endian hosts the portable per-element
// decode paths run instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// f32view reinterprets b as count float32s when the host is little-endian
// and the buffer is element-aligned; it returns nil when the portable path
// must be used. The view produces bit-identical results to the decode path —
// it only removes the per-element byte shuffling.
func f32view(b []byte, count int) []float32 {
	if !hostLittleEndian || count == 0 || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil
	}
	_ = b[count*4-1] // bounds check the full range up front
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), count)
}

func f64view(b []byte, count int) []float64 {
	if !hostLittleEndian || count == 0 || uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil
	}
	_ = b[count*8-1]
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), count)
}

// Kind is a scalar element type.
type Kind int

const (
	// U8 is an unsigned byte.
	U8 Kind = iota
	// I32 is a little-endian int32.
	I32
	// I64 is a little-endian int64.
	I64
	// F16 is IEEE 754 binary16.
	F16
	// F32 is IEEE 754 binary32.
	F32
	// F64 is IEEE 754 binary64.
	F64
	// C128 is a pair of float64 (re, im).
	C128
)

// Size returns the element width in bytes.
func (k Kind) Size() int {
	switch k {
	case U8:
		return 1
	case F16:
		return 2
	case I32, F32:
		return 4
	case I64, F64:
		return 8
	case C128:
		return 16
	}
	panic(fmt.Sprintf("elem: unknown kind %d", int(k)))
}

// Op is a reduction operator.
type Op int

const (
	// OpSum adds.
	OpSum Op = iota
	// OpProd multiplies (complex-aware for C128).
	OpProd
	// OpMax keeps the maximum (undefined for C128).
	OpMax
	// OpMin keeps the minimum (undefined for C128).
	OpMin
)

// Get reads element i as (re, im); im is zero for real kinds.
func Get(k Kind, b []byte, i int) (re, im float64) {
	switch k {
	case U8:
		return float64(b[i]), 0
	case I32:
		return float64(int32(binary.LittleEndian.Uint32(b[i*4:]))), 0
	case I64:
		return float64(int64(binary.LittleEndian.Uint64(b[i*8:]))), 0
	case F16:
		return Float16ToFloat(binary.LittleEndian.Uint16(b[i*2:])), 0
	case F32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))), 0
	case F64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])), 0
	case C128:
		return math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	panic(fmt.Sprintf("elem: get for kind %d", int(k)))
}

// Set stores (re, im) into element i; im is ignored for real kinds.
func Set(k Kind, b []byte, i int, re, im float64) {
	switch k {
	case U8:
		b[i] = byte(clamp(re, 0, 255))
	case I32:
		binary.LittleEndian.PutUint32(b[i*4:], uint32(int32(clamp(re, math.MinInt32, math.MaxInt32))))
	case I64:
		binary.LittleEndian.PutUint64(b[i*8:], uint64(int64(re)))
	case F16:
		binary.LittleEndian.PutUint16(b[i*2:], FloatToFloat16(re))
	case F32:
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(float32(re)))
	case F64:
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(re))
	case C128:
		binary.LittleEndian.PutUint64(b[i*16:], math.Float64bits(re))
		binary.LittleEndian.PutUint64(b[i*16+8:], math.Float64bits(im))
	default:
		panic(fmt.Sprintf("elem: set for kind %d", int(k)))
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reduce applies dst[i] = op(dst[i], src[i]) elementwise over count
// elements. It is ReduceTo with dst as the left operand.
func Reduce(op Op, k Kind, dst, src []byte, count int) {
	ReduceTo(op, k, dst, dst, src, count)
}

// ReduceTo applies dst[i] = op(a[i], b[i]) elementwise over count elements
// in one pass, bitwise equal to copying a into dst and then reducing b into
// it. dst may alias a or b exactly (not a shifted overlap). OpMax/OpMin on
// C128 panic (undefined by both the MPI standard and every CCL). The
// float32/float64 cases — the hot paths of every gradient allreduce — use
// type-specialized loops. The float32 sum, on amd64 CPUs with AVX, runs a
// vector kernel over each 32-element block of 4-byte-aligned buffers; it is
// bitwise equal to the scalar loop, NaN payloads included, and steps aside
// for the tail, unaligned buffers, other builds and -race. I64 reduces
// exactly in int64, saturating to MinInt64/MaxInt64 like I32's clamp.
func ReduceTo(op Op, k Kind, dst, a, b []byte, count int) {
	if k == C128 && (op == OpMax || op == OpMin) {
		panic("elem: max/min undefined for complex")
	}
	switch k {
	case F32:
		reduceF32(op, dst, a, b, count)
		return
	case F64:
		reduceF64(op, dst, a, b, count)
		return
	case I64:
		reduceI64(op, dst, a, b, count)
		return
	}
	for i := 0; i < count; i++ {
		are, aim := Get(k, a, i)
		bre, bim := Get(k, b, i)
		var re, im float64
		switch op {
		case OpSum:
			re, im = are+bre, aim+bim
		case OpProd:
			if k == C128 {
				re = are*bre - aim*bim
				im = are*bim + aim*bre
			} else {
				re = are * bre
			}
		case OpMax:
			re = are
			if bre > are {
				re = bre
			}
		case OpMin:
			re = are
			if bre < are {
				re = bre
			}
		}
		Set(k, dst, i, re, im)
	}
}

func reduceF32(op Op, dst, a, b []byte, count int) {
	// Fast path: typed views with the operator switch hoisted out of the
	// loop. This is the single hottest compute kernel of every gradient
	// allreduce; its sum has a vector kernel where the build and CPU allow.
	if d, x, y := f32view(dst, count), f32view(a, count), f32view(b, count); d != nil && x != nil && y != nil {
		if op != OpSum || !sumF32(d, x, y) {
			reduceTyped(op, d, x, y)
		}
		return
	}
	for i := 0; i < count; i++ {
		d := math.Float32frombits(binary.LittleEndian.Uint32(a[i*4:]))
		s := math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		switch op {
		case OpSum:
			d += s
		case OpProd:
			d *= s
		case OpMax:
			if s > d {
				d = s
			}
		case OpMin:
			if s < d {
				d = s
			}
		}
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(d))
	}
}

func reduceF64(op Op, dst, a, b []byte, count int) {
	if d, x, y := f64view(dst, count), f64view(a, count), f64view(b, count); d != nil && x != nil && y != nil {
		reduceTyped(op, d, x, y)
		return
	}
	for i := 0; i < count; i++ {
		d := math.Float64frombits(binary.LittleEndian.Uint64(a[i*8:]))
		s := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		switch op {
		case OpSum:
			d += s
		case OpProd:
			d *= s
		case OpMax:
			if s > d {
				d = s
			}
		case OpMin:
			if s < d {
				d = s
			}
		}
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(d))
	}
}

// reduceI64 reduces int64s exactly, aligned or not; a float64 round trip
// would drop the bits above 2^53. Out-of-range sums and products saturate.
func reduceI64(op Op, dst, a, b []byte, count int) {
	for i := 0; i < count; i++ {
		x := int64(binary.LittleEndian.Uint64(a[i*8:]))
		y := int64(binary.LittleEndian.Uint64(b[i*8:]))
		var r int64
		switch op {
		case OpSum:
			r = addSat(x, y)
		case OpProd:
			r = mulSat(x, y)
		case OpMax:
			r = max(x, y)
		case OpMin:
			r = min(x, y)
		}
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(r))
	}
}

func addSat(x, y int64) int64 {
	s := x + y
	if (x^s)&(y^s) < 0 { // x and y share a sign that s lacks
		return saturated(x < 0)
	}
	return s
}

func mulSat(x, y int64) int64 {
	p := x * y
	if x != 0 && (p/x != y || x == -1 && y == math.MinInt64) {
		return saturated((x < 0) != (y < 0))
	}
	return p
}

func saturated(negative bool) int64 {
	if negative {
		return math.MinInt64
	}
	return math.MaxInt64
}

// reduceTyped is the typed-view kernel: d[i] = op(x[i], y[i]), element by
// element, so d may alias x or y exactly. The sum is unrolled eight wide,
// which the scalar loop needs to keep up with three memory streams.
func reduceTyped[T float32 | float64](op Op, d, x, y []T) {
	n := len(d)
	x, y = x[:n], y[:n]
	switch op {
	case OpSum:
		i := 0
		for ; i+8 <= n; i += 8 {
			dd, xx, yy := (*[8]T)(d[i:]), (*[8]T)(x[i:]), (*[8]T)(y[i:])
			dd[0] = xx[0] + yy[0]
			dd[1] = xx[1] + yy[1]
			dd[2] = xx[2] + yy[2]
			dd[3] = xx[3] + yy[3]
			dd[4] = xx[4] + yy[4]
			dd[5] = xx[5] + yy[5]
			dd[6] = xx[6] + yy[6]
			dd[7] = xx[7] + yy[7]
		}
		for ; i < n; i++ {
			d[i] = x[i] + y[i]
		}
	case OpProd:
		for i := range d {
			d[i] = x[i] * y[i]
		}
	case OpMax:
		for i := range d {
			v := x[i]
			if y[i] > v {
				v = y[i]
			}
			d[i] = v
		}
	case OpMin:
		for i := range d {
			v := x[i]
			if y[i] < v {
				v = y[i]
			}
			d[i] = v
		}
	}
}

// Float16ToFloat converts an IEEE 754 binary16 value to float64.
func Float16ToFloat(h uint16) float64 {
	sign := uint64(h>>15) & 1
	exp := uint64(h>>10) & 0x1f
	frac := uint64(h) & 0x3ff
	var bits uint64
	switch {
	case exp == 0 && frac == 0:
		bits = sign << 63
	case exp == 0: // subnormal
		e := uint64(0)
		for frac&0x400 == 0 {
			frac <<= 1
			e++
		}
		frac &= 0x3ff
		bits = sign<<63 | (1023-15+1-e)<<52 | frac<<42
	case exp == 0x1f && frac == 0:
		bits = sign<<63 | 0x7ff<<52 // inf
	case exp == 0x1f:
		bits = sign<<63 | 0x7ff<<52 | frac<<42 // nan
	default:
		bits = sign<<63 | (exp-15+1023)<<52 | frac<<42
	}
	return math.Float64frombits(bits)
}

// FloatToFloat16 converts a float64 to IEEE 754 binary16 (truncating
// rounding, overflow to inf, deep underflow flushed to zero).
func FloatToFloat16(f float64) uint16 {
	bits := math.Float64bits(f)
	sign := uint16(bits>>48) & 0x8000
	exp := int((bits>>52)&0x7ff) - 1023
	frac := bits & 0xfffffffffffff
	switch {
	case math.IsNaN(f):
		return sign | 0x7e00
	case math.IsInf(f, 0) || exp > 15:
		return sign | 0x7c00
	case exp < -24:
		return sign
	case exp < -14: // subnormal
		shift := uint(-exp - 14)
		m := uint16((frac|1<<52)>>42) >> shift
		return sign | m
	default:
		return sign | uint16(exp+15)<<10 | uint16(frac>>42)
	}
}
