//go:build !purego

#include "textflag.h"

// func sumGaussQueries512Asm(c float64, qp *[8]*float64, d int, qt *float64, rows *float64, n int, acc *[8]float64, tab *[15]float64) (done int)
//
// sumgauss_amd64.s eight lanes wide: lane l is the query at qp[l] (the
// wrapper repeats the last query in the lanes past a short group), and
// every lane of every instruction below is the IEEE operation, operand
// order included, that sumGaussRowsGo performs for that query and one
// row. No fused multiply-add, and only AVX-512 F instructions (the
// zeroing is VPXORQ, not the DQ form of VXORPD).
//
//	SI transposed queries: 64 bytes a dimension, lane l at 8·l
//	CX d        R12 d &^ 3        DI row stride in bytes
//	R8 the row  BX rows           R13 rows done
//	AX dimension index            R10 its transposed vector
//	Z0..Z3 distance accumulators s0..s3 of the eight lanes
//	Z14 acc     Z15 c             Z16..Z30 expTab, in its order
//
// The frame holds the transposed queries of d <= 32, 64-byte aligned so
// that no vector load splits a cache line; a wider query comes with its
// buffer in qt.
TEXT ·sumGaussQueries512Asm(SB), $2112-72
	MOVQ  qt+24(FP), SI
	TESTQ SI, SI
	JNE   transpose
	LEAQ  63(SP), SI
	ANDQ  $-64, SI

transpose:
	MOVQ qp+8(FP), AX
	MOVQ 0(AX), R8
	MOVQ 8(AX), R9
	MOVQ 16(AX), R10
	MOVQ 24(AX), R11
	MOVQ 32(AX), R12
	MOVQ 40(AX), R13
	MOVQ 48(AX), BX
	MOVQ 56(AX), DX
	MOVQ d+16(FP), CX
	XORQ AX, AX
	MOVQ SI, DI

tdim:
	// Dimension AX of the eight queries, one 8-byte load each: no load
	// may run past a query row, which may end its mapping.
	VMOVSD      (R8)(AX*8), X4
	VMOVHPD     (R9)(AX*8), X4, X4
	VMOVSD      (R10)(AX*8), X5
	VMOVHPD     (R11)(AX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMOVSD      (R12)(AX*8), X6
	VMOVHPD     (R13)(AX*8), X6, X6
	VMOVSD      (BX)(AX*8), X7
	VMOVHPD     (DX)(AX*8), X7, X7
	VINSERTF128 $1, X7, Y6, Y6
	VINSERTF64X4 $1, Y6, Z4, Z4
	VMOVUPD     Z4, (DI)
	ADDQ        $64, DI
	INCQ        AX
	CMPQ        AX, CX
	JLT         tdim

	MOVQ         rows+32(FP), R8
	MOVQ         n+40(FP), BX
	MOVQ         acc+48(FP), AX
	MOVQ         tab+56(FP), DX
	VMOVUPD      (AX), Z14
	VBROADCASTSD c+0(FP), Z15
	VBROADCASTSD 0(DX), Z16   // expMinNormal
	VBROADCASTSD 8(DX), Z17   // expMax
	VBROADCASTSD 16(DX), Z18  // log2e
	VBROADCASTSD 24(DX), Z19  // 0.5
	VBROADCASTSD 32(DX), Z20  // ln2Hi
	VBROADCASTSD 40(DX), Z21  // ln2Lo
	VBROADCASTSD 48(DX), Z22  // C0
	VBROADCASTSD 56(DX), Z23  // C2
	VBROADCASTSD 64(DX), Z24  // C3
	VBROADCASTSD 72(DX), Z25  // C4
	VBROADCASTSD 80(DX), Z26  // C5
	VBROADCASTSD 88(DX), Z27  // C6
	VBROADCASTSD 96(DX), Z28  // C7
	VBROADCASTSD 104(DX), Z29 // C8
	VBROADCASTSD 112(DX), Z30 // bias
	MOVQ         CX, DI
	SHLQ         $3, DI
	MOVQ         CX, R12
	ANDQ         $-4, R12
	XORQ         R13, R13

row:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   AX, AX
	MOVQ   SI, R10
	TESTQ  R12, R12
	JEQ    tail

chunk:
	// s_k += (q - p)·(q - p) for dimensions AX+k, k = 0..3: the query
	// vectors loaded, p an embedded broadcast (an exact copy).
	VMOVUPD     (R10), Z4
	VMOVUPD     64(R10), Z5
	VMOVUPD     128(R10), Z6
	VMOVUPD     192(R10), Z7
	VSUBPD.BCST (R8)(AX*8), Z4, Z4
	VSUBPD.BCST 8(R8)(AX*8), Z5, Z5
	VSUBPD.BCST 16(R8)(AX*8), Z6, Z6
	VSUBPD.BCST 24(R8)(AX*8), Z7, Z7
	VMULPD      Z4, Z4, Z4
	VMULPD      Z5, Z5, Z5
	VMULPD      Z6, Z6, Z6
	VMULPD      Z7, Z7, Z7
	VADDPD      Z4, Z0, Z0
	VADDPD      Z5, Z1, Z1
	VADDPD      Z6, Z2, Z2
	VADDPD      Z7, Z3, Z3
	ADDQ        $4, AX
	ADDQ        $256, R10
	CMPQ        AX, R12
	JLT         chunk

tail:
	// The d mod 4 last dimensions go to s0 one at a time, as in the Go
	// loop.
	CMPQ AX, CX
	JGE  hsum

taildim:
	VMOVUPD     (R10), Z4
	VSUBPD.BCST (R8)(AX*8), Z4, Z4
	VMULPD      Z4, Z4, Z4
	VADDPD      Z4, Z0, Z0
	ADDQ        $64, R10
	INCQ        AX
	CMPQ        AX, CX
	JLT         taildim

hsum:
	// (s0+s1)+(s2+s3) in every lane: no horizontal sum.
	VADDPD Z1, Z0, Z0
	VADDPD Z3, Z2, Z2
	VADDPD Z2, Z0, Z6
	VMULPD Z6, Z15, Z6 // x = c·sum

	// expMinNormal <= x <= expMax in every lane (ordered, quiet: NaN is
	// out), or the row is the Go body's.
	VCMPPD $0x1D, Z16, Z6, K1
	VCMPPD $0x12, Z17, Z6, K2
	KANDW  K2, K1, K1
	KMOVW  K1, AX
	CMPL   AX, $0xFF
	JNE    out

	// expReduce: k = floor(x·log2e + 0.5), r = (x - k·ln2Hi) - k·ln2Lo.
	VMULPD      Z18, Z6, Z0
	VADDPD      Z19, Z0, Z0
	VRNDSCALEPD $1, Z0, Z0  // k: round down, precision exception not suppressed, as ROUNDSD $1
	VMULPD      Z20, Z0, Z1
	VSUBPD      Z1, Z6, Z1
	VMULPD      Z21, Z0, Z2
	VSUBPD      Z2, Z1, Z1  // r

	// expPoly, in the source's evaluation order.
	VMULPD Z1, Z1, Z2  // r2
	VMULPD Z2, Z2, Z3  // r4
	VADDPD Z1, Z22, Z4 // p01 = 1 + r
	VMULPD Z24, Z1, Z5
	VADDPD Z5, Z23, Z5 // p23 = 1/2 + r·(1/6)
	VMULPD Z26, Z1, Z6
	VADDPD Z6, Z25, Z6 // p45 = 1/24 + r·(1/120)
	VMULPD Z28, Z1, Z7
	VADDPD Z7, Z27, Z7 // p67 = 1/720 + r·(1/5040)
	VMULPD Z5, Z2, Z5
	VADDPD Z5, Z4, Z4  // p01 + r2·p23
	VMULPD Z7, Z2, Z7
	VADDPD Z7, Z6, Z6  // p45 + r2·p67
	VMULPD Z6, Z3, Z6
	VADDPD Z6, Z4, Z4  // … + r4·(p45 + r2·p67)
	VMULPD Z3, Z3, Z3
	VMULPD Z29, Z3, Z3
	VADDPD Z3, Z4, Z4  // … + (r4·r4)·(1/40320)

	// pow2: k is integral and -1021 <= k <= 1023 here, so k + 1023 is
	// exact in float64 and converts to the integer int64(k)+1023.
	VADDPD     Z30, Z0, Z0
	VCVTTPD2DQ Z0, Y0
	VPMOVZXDQ  Y0, Z0
	VPSLLQ     $52, Z0, Z0
	VMULPD     Z0, Z4, Z4  // expPoly(r)·pow2(k)

	// acc += term: each query's own accumulator, rows in order.
	VADDPD Z4, Z14, Z14
	ADDQ   DI, R8
	INCQ   R13
	CMPQ   R13, BX
	JLT    row

out:
	MOVQ    acc+48(FP), AX
	VMOVUPD Z14, (AX)
	MOVQ    R13, done+64(FP)
	VZEROUPPER
	RET
