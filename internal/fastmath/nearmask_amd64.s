#include "textflag.h"

// One dimension's squared offset for the four points x at mem, into sq:
// t = min(x-lo, hi-x, 0), t·t — boxOffset's near form, the subtractions
// in Go operand order (VSUBPD b, a, dst is a-b). VMINPD returns
// its second source (the first operand in this syntax) when either is
// NaN or both are zeros. The callers' boxes are finite, so x-lo and hi-x
// are NaN together or not at all and the first min keeps a NaN whichever
// it returns; the second has zero as first source so that it returns t,
// NaN included. A zero of either sign squares to +0.
#define SQOFFSET(mem, lo, hi, sq) \
	VMOVUPD mem, Y0      \
	VSUBPD  lo, Y0, Y1   \
	VSUBPD  Y0, hi, Y2   \
	VMINPD  Y2, Y1, Y1   \
	VMINPD  Y1, Y7, Y1   \
	VMULPD  Y1, Y1, sq

// func nearMaskColsAsm(cols *float64, stride int, lo, hi *float64, d int, w *float64, groups int) uint64
//
// Bit 4g+l of the result is !(s >= w[4g+l]) for the near value s of point
// 4g+l, g < groups, 1 <= groups <= 16; dimension j of point i is
// cols[j·stride+i], 1 <= d <= 4. Every lane of every instruction is the
// IEEE operation, operand order included, that Hypot2Box performs for one
// point; there is no fused multiply-add in this file and there must
// never be one. It reads the 4·groups floats at w and at each of the d
// columns, never a byte beyond.
//
//	SI the group's first point      DI, R14 stride and 3·stride in bytes
//	DX w   BX groups left   R12 d   R13 the group's bit offset   AX the mask
//	Y8..Y11 lo[0..3]   Y12..Y15 hi[0..3] (the first d of each)   Y7 zero
//	Y4 the running sum   Y5, Y6 squares waiting for it
TEXT ·nearMaskColsAsm(SB), NOSPLIT, $0-64
	MOVQ cols+0(FP), SI
	MOVQ stride+8(FP), DI
	MOVQ lo+16(FP), R8
	MOVQ hi+24(FP), R9
	MOVQ d+32(FP), R12
	MOVQ w+40(FP), DX
	MOVQ groups+48(FP), BX
	SHLQ $3, DI
	LEAQ (DI)(DI*2), R14
	XORQ AX, AX
	XORQ R13, R13
	VXORPD Y7, Y7, Y7

	VBROADCASTSD 0(R8), Y8
	VBROADCASTSD 0(R9), Y12
	CMPQ         R12, $2
	JLT          group
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 8(R9), Y13
	JEQ          group
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 16(R9), Y14
	CMPQ         R12, $4
	JLT          group
	VBROADCASTSD 24(R8), Y11
	VBROADCASTSD 24(R9), Y15

group:
	// Hypot2's lane order: ((d0²)+d1²)+d2² up to d = 3, where everything
	// lands in lane 0; (d0²+d1²)+(d2²+d3²) at d = 4.
	SQOFFSET((SI), Y8, Y12, Y4)
	CMPQ   R12, $2
	JLT    compare
	SQOFFSET((SI)(DI*1), Y9, Y13, Y5)
	VADDPD Y5, Y4, Y4
	CMPQ   R12, $3
	JLT    compare
	SQOFFSET((SI)(DI*2), Y10, Y14, Y5)
	JEQ    last
	SQOFFSET((SI)(R14*1), Y11, Y15, Y6)
	VADDPD Y6, Y5, Y5

last:
	VADDPD Y5, Y4, Y4

compare:
	// NGE_UQ: true when s < w or either is NaN, the points the Go loop's
	// "s >= w" does not settle.
	VMOVUPD   (DX), Y3
	VCMPPD    $0x19, Y3, Y4, Y0
	VMOVMSKPD Y0, R10
	MOVQ      R13, CX
	SHLQ      CX, R10
	ORQ       R10, AX
	ADDQ      $4, R13
	ADDQ      $32, SI
	ADDQ      $32, DX
	DECQ      BX
	JNZ       group

	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
