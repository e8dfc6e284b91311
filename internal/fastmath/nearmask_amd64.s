//go:build !purego

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
	SQOFFSETY0(lo, hi, sq)

// SQOFFSET for the four lanes already in Y0.
#define SQOFFSETY0(lo, hi, sq) \
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

// func nearMaskRowsAsm(rows, lo, hi *float64, d int, w *float64, groups int) uint64
//
// Bit 4g+l of the result is !(s >= w[4g+l]) for the near value s of row
// 4g+l, g < groups, 1 <= groups <= 16, rows of d >= 1 dimensions stored
// one after the other. Each row of a group has a register of its own
// whose lanes are Hypot2Box's partial sums s0..s3: dimensions j..j+3 of
// a chunk go to lanes 0..3, the d mod 4 last ones to lane 0 one at a
// time, then (s0+s1)+(s2+s3) — Hypot2's lanes, SQOFFSET's
// operations. Every lane of every instruction is the IEEE operation,
// operand order included, that Hypot2Box performs for one row; there is
// no fused multiply-add in this file and there must never be one. It
// reads the 4·groups·d floats at rows, the 4·groups at w and the d at
// lo and at hi, never a byte beyond: no 32-byte load starts at or past
// dimension d &^ 3.
//
//	R8..R11 the group's four rows   R14 row stride in bytes
//	SI lo   DI hi   R13 d   R12 d &^ 3   CX the dimension
//	DX the group's w   BX groups left   AX the mask, built from the top
//	Y8, Y9 lo and hi of the chunk   Y10..Y13 the rows' sums   Y7 zero
TEXT ·nearMaskRowsAsm(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), R8
	MOVQ lo+8(FP), SI
	MOVQ hi+16(FP), DI
	MOVQ d+24(FP), R13
	MOVQ w+32(FP), DX
	MOVQ groups+40(FP), BX
	MOVQ R13, R14
	SHLQ $3, R14
	MOVQ R13, R12
	ANDQ $-4, R12
	XORQ AX, AX
	VXORPD Y7, Y7, Y7

rgroup:
	LEAQ   (R8)(R14*1), R9
	LEAQ   (R9)(R14*1), R10
	LEAQ   (R10)(R14*1), R11
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	XORQ   CX, CX
	TESTQ  R12, R12
	JEQ    rtail

rchunk:
	VMOVUPD (SI)(CX*8), Y8
	VMOVUPD (DI)(CX*8), Y9
	SQOFFSET((R8)(CX*8), Y8, Y9, Y3)
	VADDPD  Y3, Y10, Y10
	SQOFFSET((R9)(CX*8), Y8, Y9, Y3)
	VADDPD  Y3, Y11, Y11
	SQOFFSET((R10)(CX*8), Y8, Y9, Y3)
	VADDPD  Y3, Y12, Y12
	SQOFFSET((R11)(CX*8), Y8, Y9, Y3)
	VADDPD  Y3, Y13, Y13
	ADDQ    $4, CX
	CMPQ    CX, R12
	JLT     rchunk

rtail:
	// The 8-byte VMOVSD loads zero lanes 1..3 of x, lo and hi alike,
	// whose offsets are then +0 and add +0 to sums that are >= +0 or NaN:
	// unchanged.
	CMPQ CX, R13
	JGE  rsum

rtaildim:
	VMOVSD (SI)(CX*8), X8
	VMOVSD (DI)(CX*8), X9
	VMOVSD (R8)(CX*8), X0
	SQOFFSETY0(Y8, Y9, Y3)
	VADDPD Y3, Y10, Y10
	VMOVSD (R9)(CX*8), X0
	SQOFFSETY0(Y8, Y9, Y3)
	VADDPD Y3, Y11, Y11
	VMOVSD (R10)(CX*8), X0
	SQOFFSETY0(Y8, Y9, Y3)
	VADDPD Y3, Y12, Y12
	VMOVSD (R11)(CX*8), X0
	SQOFFSETY0(Y8, Y9, Y3)
	VADDPD Y3, Y13, Y13
	INCQ   CX
	CMPQ   CX, R13
	JLT    rtaildim

rsum:
	// (s0+s1)+(s2+s3) of the four rows a, b, c, d at once.
	VHADDPD    Y11, Y10, Y4          // a0+a1 b0+b1 a2+a3 b2+b3
	VHADDPD    Y13, Y12, Y5          // c0+c1 d0+d1 c2+c3 d2+d3
	VPERM2F128 $0x20, Y5, Y4, Y6     // a01 b01 c01 d01
	VPERM2F128 $0x31, Y5, Y4, Y3     // a23 b23 c23 d23
	VADDPD     Y3, Y6, Y6

	// NGE_UQ as in nearMaskColsAsm. The group's four bits enter the mask
	// at the top and move down four places with every later group.
	VMOVUPD   (DX), Y3
	VCMPPD    $0x19, Y3, Y6, Y0
	VMOVMSKPD Y0, CX
	SHLQ      $60, CX
	SHRQ      $4, AX
	ORQ       CX, AX
	ADDQ      $32, DX
	LEAQ      (R11)(R14*1), R8
	DECQ      BX
	JNZ       rgroup

	// Down to bit 0: 64 - 4·groups places, 0 for a full mask.
	MOVQ groups+40(FP), CX
	SHLQ $2, CX
	NEGQ CX
	ADDQ $64, CX
	SHRQ CX, AX
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
