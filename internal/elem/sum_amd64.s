//go:build amd64 && !race

// The float32 OpSum kernel: 256-bit AVX adds, four 8-lane vectors (32
// elements, 128 bytes) per iteration. It is assembly because Go code
// cannot emit vector adds.
//
// The build excludes -race on purpose. The race detector cannot see memory
// accesses made from assembly, and the reduce is the read the race legs
// must observe (a straggler still reducing out of a peer's buffer while
// the peer reuses it). Under -race the portable Go loop runs instead, so
// every race leg keeps its coverage.

#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	// CPUID.1:ECX: OSXSAVE (bit 27) and AVX (bit 28). OSXSAVE must be set
	// before XGETBV may run.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func addF32x32(d, x, y *float32, blocks int)
//
// d[i] = x[i] + y[i] for i < 32*blocks. x is the first source of every
// VADDPS, as in Go's x[i] + y[i], so a NaN result carries the same payload.
// Loads and stores are unaligned (views are only 4-byte aligned). Each
// block is loaded in full before it is stored, so d may alias x or y
// exactly.
TEXT ·addF32x32(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ blocks+24(FP), CX
	TESTQ CX, CX
	JLE  done

loop:
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS  0(DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VADDPS  64(DX), Y2, Y2
	VADDPS  96(DX), Y3, Y3
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET
