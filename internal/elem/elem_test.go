package elem

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindSizes(t *testing.T) {
	want := map[Kind]int{U8: 1, I32: 4, I64: 8, F16: 2, F32: 4, F64: 8, C128: 16}
	for k, sz := range want {
		if k.Size() != sz {
			t.Errorf("kind %d size = %d, want %d", int(k), k.Size(), sz)
		}
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Kind(99).Size()
}

func TestGetSetRoundTrip(t *testing.T) {
	cases := map[Kind][]float64{
		U8:   {0, 1, 100, 255},
		I32:  {0, 1, -1, 3, 1 << 20},
		I64:  {0, -5, 1 << 40},
		F16:  {0, 1, -1, 0.5, 1024},
		F32:  {0, 1.5, -2.25},
		F64:  {0, 3.14159, -1e100},
		C128: {0, 1, -2.5},
	}
	for k, vals := range cases {
		b := make([]byte, 16*k.Size())
		for i, v := range vals {
			Set(k, b, i, v, -v)
			re, im := Get(k, b, i)
			if re != v {
				t.Errorf("kind %d elem %d re = %v, want %v", int(k), i, re, v)
			}
			if k == C128 && im != -v {
				t.Errorf("C128 elem %d im = %v, want %v", i, im, -v)
			}
		}
	}
}

func TestU8Clamping(t *testing.T) {
	b := make([]byte, 2)
	Set(U8, b, 0, 300, 0)
	Set(U8, b, 1, -5, 0)
	if b[0] != 255 || b[1] != 0 {
		t.Fatalf("clamped to %d, %d", b[0], b[1])
	}
}

func TestFloat16RoundTripExactValues(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.5, 2, 1024, 65504, -65504, 0.0009765625} {
		h := FloatToFloat16(v)
		if got := Float16ToFloat(h); got != v {
			t.Errorf("float16 round trip %v -> %v", v, got)
		}
	}
}

func TestFloat16Specials(t *testing.T) {
	if !math.IsInf(Float16ToFloat(FloatToFloat16(math.Inf(1))), 1) {
		t.Error("+inf lost")
	}
	if !math.IsInf(Float16ToFloat(FloatToFloat16(1e10)), 1) {
		t.Error("overflow should become +inf")
	}
	if !math.IsNaN(Float16ToFloat(FloatToFloat16(math.NaN()))) {
		t.Error("nan lost")
	}
	if Float16ToFloat(FloatToFloat16(1e-10)) != 0 {
		t.Error("deep underflow should flush to zero")
	}
}

// Property: any finite half value round-trips exactly through float64.
func TestFloat16RoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		v := Float16ToFloat(raw)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return Float16ToFloat(FloatToFloat16(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceOpsF64(t *testing.T) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, len(vals)*8)
		for i, v := range vals {
			Set(F64, b, i, v, 0)
		}
		return b
	}
	read := func(b []byte, i int) float64 { re, _ := Get(F64, b, i); return re }

	dst := mk(1, -2, 3)
	Reduce(OpSum, F64, dst, mk(10, 20, 30), 3)
	if read(dst, 0) != 11 || read(dst, 1) != 18 || read(dst, 2) != 33 {
		t.Fatal("sum wrong")
	}
	dst = mk(2, 3, 4)
	Reduce(OpProd, F64, dst, mk(5, -1, 0.5), 3)
	if read(dst, 0) != 10 || read(dst, 1) != -3 || read(dst, 2) != 2 {
		t.Fatal("prod wrong")
	}
	dst = mk(1, 5)
	Reduce(OpMax, F64, dst, mk(3, 2), 2)
	if read(dst, 0) != 3 || read(dst, 1) != 5 {
		t.Fatal("max wrong")
	}
	dst = mk(1, 5)
	Reduce(OpMin, F64, dst, mk(3, 2), 2)
	if read(dst, 0) != 1 || read(dst, 1) != 2 {
		t.Fatal("min wrong")
	}
}

func TestReduceComplexProd(t *testing.T) {
	dst := make([]byte, 16)
	src := make([]byte, 16)
	Set(C128, dst, 0, 1, 2)
	Set(C128, src, 0, 3, -1)
	Reduce(OpProd, C128, dst, src, 1)
	re, im := Get(C128, dst, 0)
	if re != 5 || im != 5 { // (1+2i)(3-i) = 5+5i
		t.Fatalf("complex prod = %v+%vi", re, im)
	}
}

func TestReduceComplexMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Reduce(OpMax, C128, make([]byte, 16), make([]byte, 16), 1)
}

// Property: OpSum over I64 is exact integer addition over the full int64
// range, saturating to MinInt64/MaxInt64 where the sum leaves it.
func TestReduceSumI64Property(t *testing.T) {
	f := func(a, b int64) bool {
		x := make([]byte, 8)
		y := make([]byte, 8)
		binary.LittleEndian.PutUint64(x, uint64(a))
		binary.LittleEndian.PutUint64(y, uint64(b))
		Reduce(OpSum, I64, x, y, 1)
		want := new(big.Int).Add(big.NewInt(a), big.NewInt(b))
		switch {
		case want.Cmp(big.NewInt(math.MaxInt64)) > 0:
			want.SetInt64(math.MaxInt64)
		case want.Cmp(big.NewInt(math.MinInt64)) < 0:
			want.SetInt64(math.MinInt64)
		}
		return int64(binary.LittleEndian.Uint64(x)) == want.Int64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// I64 reduces in int64, not through float64: values above 2^53 keep every
// bit, and out-of-range sums and products saturate like I32's clamp. Each
// case runs on aligned and on odd-address buffers.
func TestReduceI64Exact(t *testing.T) {
	cases := []struct {
		op         Op
		a, b, want int64
	}{
		{OpMax, 1<<62 + 1, 1<<62 + 1, 1<<62 + 1},
		{OpSum, 1<<53 + 1, 0, 1<<53 + 1},
		{OpMin, -1<<62 - 1, 1 << 62, -1<<62 - 1},
		{OpMax, -1<<62 - 1, 1<<62 + 3, 1<<62 + 3},
		{OpProd, 1<<31 + 1, 1<<31 - 1, 1<<62 - 1},
		{OpSum, math.MaxInt64, 1, math.MaxInt64},
		{OpSum, math.MinInt64, -1, math.MinInt64},
		{OpSum, math.MaxInt64, math.MinInt64, -1},
		{OpProd, 1 << 32, 1 << 32, math.MaxInt64},
		{OpProd, 1 << 32, -1 << 32, math.MinInt64},
		{OpProd, math.MinInt64, -1, math.MaxInt64},
		{OpProd, -1, math.MinInt64, math.MaxInt64},
		{OpProd, math.MinInt64, 1, math.MinInt64},
		{OpProd, 0, math.MinInt64, 0},
	}
	for _, c := range cases {
		for _, buf := range []func(int) []byte{aligned, unaligned} {
			a, b, d := buf(8), buf(8), buf(8)
			binary.LittleEndian.PutUint64(a, uint64(c.a))
			binary.LittleEndian.PutUint64(b, uint64(c.b))
			ReduceTo(c.op, I64, d, a, b, 1)
			if got := int64(binary.LittleEndian.Uint64(d)); got != c.want {
				t.Errorf("op %d (%d, %d) = %d, want %d", int(c.op), c.a, c.b, got, c.want)
			}
		}
	}
}

// The specialized float32/float64 reduce paths must agree exactly with the
// generic elementwise path.
func TestSpecializedReduceMatchesGeneric(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, 3.25, -1e20, 1e-20, 7}
	for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
		for _, k := range []Kind{F32, F64} {
			n := len(vals)
			dst := make([]byte, n*k.Size())
			src := make([]byte, n*k.Size())
			ref := make([]byte, n*k.Size())
			for i, v := range vals {
				Set(k, dst, i, v, 0)
				Set(k, ref, i, v, 0)
				Set(k, src, i, vals[(i+3)%n], 0)
			}
			Reduce(op, k, dst, src, n) // specialized
			// Generic reference via the scalar accessors.
			for i := 0; i < n; i++ {
				d, _ := Get(k, ref, i)
				s, _ := Get(k, src, i)
				var r float64
				switch op {
				case OpSum:
					r = d + s
				case OpProd:
					r = d * s
				case OpMax:
					r = d
					if s > d {
						r = s
					}
				case OpMin:
					r = d
					if s < d {
						r = s
					}
				}
				Set(k, ref, i, r, 0)
			}
			for i := 0; i < n; i++ {
				got, _ := Get(k, dst, i)
				want, _ := Get(k, ref, i)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("kind %d op %d elem %d: %v != %v", int(k), int(op), i, got, want)
				}
			}
		}
	}
}

// reduceToOperands builds count elements of kind k for both operands:
// signed zeros, NaN and infinities among ordinary values for the float
// kinds, spread integers otherwise. The offset lets a and b differ.
func reduceToOperands(k Kind, count, seed int) []byte {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1.5, -2.25, 3}
	b := aligned(count * k.Size())
	for i := 0; i < count; i++ {
		v := float64((i*7+seed*13)%23) - 11
		switch k {
		case F16, F32, F64, C128:
			if i%3 == 0 {
				v = specials[(i/3+seed)%len(specials)]
			} else {
				v /= 4
			}
		case U8:
			v = float64((i*7 + seed*13) % 256)
		}
		Set(k, b, i, v, -v/2)
	}
	return b
}

// aligned returns n bytes starting at an 8-byte boundary, where the typed
// views apply (a byte slice the compiler keeps on the stack need not be).
func aligned(n int) []byte {
	back := make([]byte, n+8)
	off := int(-uintptr(unsafe.Pointer(&back[0])) & 7)
	return back[off : off+n]
}

// unaligned returns n bytes starting at an odd address, which no typed
// view accepts.
func unaligned(n int) []byte {
	back := make([]byte, n+1)
	if uintptr(unsafe.Pointer(&back[0]))%2 == 0 {
		return back[1:]
	}
	return back[:n]
}

// ReduceTo must be bitwise equal to copying a into dst and reducing b into
// it, for every kind and operator, on aligned buffers (the typed fast
// paths) and on views offset by one byte (the portable decode paths).
func TestReduceToMatchesCopyThenReduce(t *testing.T) {
	const count = 37
	for _, k := range []Kind{U8, I32, I64, F16, F32, F64, C128} {
		for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
			if k == C128 && (op == OpMax || op == OpMin) {
				continue
			}
			a := reduceToOperands(k, count, 1)
			b := reduceToOperands(k, count, 2)
			want := aligned(len(a))
			copy(want, a)
			Reduce(op, k, want, b, count)
			got := aligned(len(a))
			ReduceTo(op, k, got, a, b, count)
			if !bytes.Equal(got, want) {
				t.Errorf("kind %d op %d: ReduceTo differs from copy-then-Reduce", int(k), int(op))
			}
			// Unaligned: every operand at an odd address.
			n := len(a)
			ua, ub, ud := unaligned(n), unaligned(n), unaligned(n)
			copy(ua, a)
			copy(ub, b)
			ReduceTo(op, k, ud, ua, ub, count)
			if !bytes.Equal(ud, want) {
				t.Errorf("kind %d op %d: unaligned ReduceTo differs from the aligned result", int(k), int(op))
			}
		}
	}
}

// The typed fast paths must really step aside for unaligned views, and the
// portable path they fall back to must agree with the fast one.
func TestReduceToUnalignedUsesPortablePath(t *testing.T) {
	if f32view(unaligned(64), 16) != nil || f64view(unaligned(128), 16) != nil {
		t.Fatal("typed view built over an unaligned buffer")
	}
	for _, k := range []Kind{F32, F64} {
		a := reduceToOperands(k, 16, 3)
		b := reduceToOperands(k, 16, 4)
		fast := aligned(len(a))
		if f32view(fast, 16) == nil {
			t.Fatal("no typed view over an aligned buffer")
		}
		ReduceTo(OpSum, k, fast, a, b, 16)
		ua := unaligned(len(a))
		copy(ua, a)
		slow := unaligned(len(a))
		ReduceTo(OpSum, k, slow, ua, b, 16)
		if !bytes.Equal(fast, slow) {
			t.Errorf("kind %d: portable path differs from the typed path", int(k))
		}
	}
}

// dst may alias either operand exactly: the in-place form is Reduce itself
// (dst == a), and dst == b overwrites the incoming operand.
func TestReduceToAliasing(t *testing.T) {
	for _, k := range []Kind{I32, F32, F64} {
		for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
			a := reduceToOperands(k, 19, 5)
			b := reduceToOperands(k, 19, 6)
			want := aligned(len(a))
			ReduceTo(op, k, want, a, b, 19)
			inA := aligned(len(a))
			copy(inA, a)
			ReduceTo(op, k, inA, inA, b, 19)
			inB := aligned(len(b))
			copy(inB, b)
			ReduceTo(op, k, inB, a, inB, 19)
			if !bytes.Equal(inA, want) || !bytes.Equal(inB, want) {
				t.Errorf("kind %d op %d: aliased ReduceTo differs", int(k), int(op))
			}
		}
	}
}

// NaN and signed zeros follow the left operand the way copy-then-Reduce
// does: a NaN on the left survives max/min (no comparison against it is
// true), a NaN on the right is ignored by them, and -0 + -0 stays -0.
func TestReduceToNaNAndSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		op   Op
		a, b float64
		want float64
	}{
		{OpSum, negZero, negZero, negZero},
		{OpSum, negZero, 0, 0},
		{OpProd, negZero, 5, negZero},
		{OpMax, math.NaN(), 1, math.NaN()},
		{OpMax, 1, math.NaN(), 1},
		{OpMin, math.NaN(), 1, math.NaN()},
		{OpMin, 1, math.NaN(), 1},
		{OpMax, negZero, 0, negZero},
		{OpSum, math.NaN(), 2, math.NaN()},
	}
	for _, k := range []Kind{F16, F32, F64} {
		for _, c := range cases {
			a, b, d := aligned(k.Size()), aligned(k.Size()), aligned(k.Size())
			Set(k, a, 0, c.a, 0)
			Set(k, b, 0, c.b, 0)
			ReduceTo(c.op, k, d, a, b, 1)
			got, _ := Get(k, d, 0)
			if math.IsNaN(c.want) != math.IsNaN(got) ||
				(!math.IsNaN(got) && (got != c.want || math.Signbit(got) != math.Signbit(c.want))) {
				t.Errorf("kind %d op %d (%v, %v) = %v, want %v", int(k), int(c.op), c.a, c.b, got, c.want)
			}
		}
	}
}

func TestReduceToComplexProd(t *testing.T) {
	a := make([]byte, 32)
	b := make([]byte, 32)
	d := make([]byte, 32)
	Set(C128, a, 0, 1, 2)
	Set(C128, b, 0, 3, -1)
	Set(C128, a, 1, 0, 1)
	Set(C128, b, 1, 0, 1)
	ReduceTo(OpProd, C128, d, a, b, 2)
	if re, im := Get(C128, d, 0); re != 5 || im != 5 { // (1+2i)(3-i) = 5+5i
		t.Errorf("(1+2i)(3-i) = %v+%vi", re, im)
	}
	if re, im := Get(C128, d, 1); re != -1 || im != 0 { // i·i = -1
		t.Errorf("i·i = %v+%vi", re, im)
	}
	if re, im := Get(C128, a, 0); re != 1 || im != 2 {
		t.Errorf("left operand changed to %v+%vi", re, im)
	}
}
