//go:build !purego

#include "textflag.h"

// Indices into expTab (sumgauss_amd64.go), as byte offsets from DX.
#define tabMinNormal 0(DX)
#define tabMax       8(DX)
#define tabLog2e     16(DX)
#define tabHalf      24(DX)
#define tabLn2Hi     32(DX)
#define tabLn2Lo     40(DX)
#define tabC0        48(DX)
#define tabC2        56(DX)
#define tabC3        64(DX)
#define tabC4        72(DX)
#define tabC5        80(DX)
#define tabC6        88(DX)
#define tabC7        96(DX)
#define tabC8        104(DX)
#define tabBias      112(DX)

// func sumGaussQueriesAsm(c float64, qp *[4]*float64, d int, qt *float64, rows *float64, n int, acc *[4]float64, tab *[15]float64) (done int)
//
// One lane is one query: lane l is the query row at qp[l] (the wrapper
// repeats the last query in the lanes past a short group). Every lane of
// every instruction below is the IEEE operation, operand order included,
// that sumGaussRowsGo performs for that query and one row; there is no
// fused multiply-add in this file and there must never be one.
//
//	SI transposed queries: 32 bytes a dimension, lane l at 8·l
//	CX d        R12 d &^ 3        DI row stride in bytes
//	R8 the row  BX rows           R13 rows done
//	AX dimension index            R10 its transposed vector
//	Y0..Y3 distance accumulators s0..s3 of the four lanes
//	Y14 acc     Y9 ln2Hi  Y10 0.5  Y11 log2e  Y12 expMax
//	Y13 expMinNormal              Y15 c
//
// The frame holds the transposed queries of d <= 32; a wider query
// comes with its buffer in qt.
TEXT ·sumGaussQueriesAsm(SB), $1024-72
	MOVQ  qt+24(FP), SI
	TESTQ SI, SI
	JNE   transpose
	MOVQ  SP, SI

transpose:
	MOVQ    qp+8(FP), AX
	MOVQ    0(AX), R8
	MOVQ    8(AX), R9
	MOVQ    16(AX), R10
	MOVQ    24(AX), R11
	MOVQ    d+16(FP), CX
	XORQ    AX, AX
	MOVQ    SI, DI

tdim:
	// Dimension AX of the four queries, one 8-byte load each: no load
	// may run past a query row, which may end its mapping.
	VMOVSD      (R8)(AX*8), X4
	VMOVHPD     (R9)(AX*8), X4, X4
	VMOVSD      (R10)(AX*8), X5
	VMOVHPD     (R11)(AX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMOVUPD     Y4, (DI)
	ADDQ        $32, DI
	INCQ        AX
	CMPQ        AX, CX
	JLT         tdim

	MOVQ         rows+32(FP), R8
	MOVQ         n+40(FP), BX
	MOVQ         acc+48(FP), AX
	MOVQ         tab+56(FP), DX
	VMOVUPD      (AX), Y14
	VBROADCASTSD c+0(FP), Y15
	VBROADCASTSD tabMinNormal, Y13
	VBROADCASTSD tabMax, Y12
	VBROADCASTSD tabLog2e, Y11
	VBROADCASTSD tabHalf, Y10
	VBROADCASTSD tabLn2Hi, Y9
	MOVQ         CX, DI
	SHLQ         $3, DI
	MOVQ         CX, R12
	ANDQ         $-4, R12
	XORQ         R13, R13

row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   SI, R10
	TESTQ  R12, R12
	JEQ    tail

chunk:
	// s_k += (q - p)·(q - p) for dimensions AX+k, k = 0..3, p broadcast.
	VBROADCASTSD (R8)(AX*8), Y4
	VBROADCASTSD 8(R8)(AX*8), Y5
	VBROADCASTSD 16(R8)(AX*8), Y6
	VBROADCASTSD 24(R8)(AX*8), Y7
	VMOVUPD      (R10), Y8
	VSUBPD       Y4, Y8, Y4
	VMOVUPD      32(R10), Y8
	VSUBPD       Y5, Y8, Y5
	VMOVUPD      64(R10), Y8
	VSUBPD       Y6, Y8, Y6
	VMOVUPD      96(R10), Y8
	VSUBPD       Y7, Y8, Y7
	VMULPD       Y4, Y4, Y4
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $4, AX
	ADDQ         $128, R10
	CMPQ         AX, R12
	JLT          chunk

tail:
	// The d mod 4 last dimensions go to s0 one at a time, as in the Go
	// loop: every lane is a query's own, so none is dead.
	CMPQ AX, CX
	JGE  hsum

taildim:
	VBROADCASTSD (R8)(AX*8), Y4
	VMOVUPD      (R10), Y8
	VSUBPD       Y4, Y8, Y4
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $32, R10
	INCQ         AX
	CMPQ         AX, CX
	JLT          taildim

hsum:
	// (s0+s1)+(s2+s3) in every lane: no horizontal sum.
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y6
	VMULPD Y6, Y15, Y6 // x = c·sum

	// expMinNormal <= x <= expMax in every lane (ordered, quiet: NaN is
	// out), or the row is the Go body's.
	VCMPPD    $0x1D, Y13, Y6, Y0
	VCMPPD    $0x12, Y12, Y6, Y1
	VANDPD    Y1, Y0, Y0
	VMOVMSKPD Y0, AX
	CMPL      AX, $15
	JNE       out

	// expReduce: k = floor(x·log2e + 0.5), r = (x - k·ln2Hi) - k·ln2Lo.
	VMULPD       Y11, Y6, Y0
	VADDPD       Y10, Y0, Y0
	VROUNDPD     $1, Y0, Y0          // k (ROUNDSD $1 is what math.Floor compiles to)
	VMULPD       Y9, Y0, Y1
	VSUBPD       Y1, Y6, Y1
	VBROADCASTSD tabLn2Lo, Y2
	VMULPD       Y2, Y0, Y2
	VSUBPD       Y2, Y1, Y1          // r

	// expPoly, in the source's evaluation order.
	VMULPD       Y1, Y1, Y2          // r2
	VMULPD       Y2, Y2, Y3          // r4
	VBROADCASTSD tabC0, Y4
	VADDPD       Y1, Y4, Y4          // p01 = 1 + r
	VBROADCASTSD tabC3, Y5
	VMULPD       Y5, Y1, Y5
	VBROADCASTSD tabC2, Y6
	VADDPD       Y5, Y6, Y5          // p23 = 1/2 + r·(1/6)
	VBROADCASTSD tabC5, Y6
	VMULPD       Y6, Y1, Y6
	VBROADCASTSD tabC4, Y7
	VADDPD       Y6, Y7, Y6          // p45 = 1/24 + r·(1/120)
	VBROADCASTSD tabC7, Y7
	VMULPD       Y7, Y1, Y7
	VBROADCASTSD tabC6, Y8
	VADDPD       Y7, Y8, Y7          // p67 = 1/720 + r·(1/5040)
	VMULPD       Y5, Y2, Y5
	VADDPD       Y5, Y4, Y4          // p01 + r2·p23
	VMULPD       Y7, Y2, Y7
	VADDPD       Y7, Y6, Y6          // p45 + r2·p67
	VMULPD       Y6, Y3, Y6
	VADDPD       Y6, Y4, Y4          // … + r4·(p45 + r2·p67)
	VMULPD       Y3, Y3, Y3
	VBROADCASTSD tabC8, Y5
	VMULPD       Y5, Y3, Y3
	VADDPD       Y3, Y4, Y4          // … + (r4·r4)·(1/40320)

	// pow2: k is integral and -1021 <= k <= 1023 here, so k + 1023 is
	// exact in float64 and converts to the integer int64(k)+1023.
	VBROADCASTSD tabBias, Y5
	VADDPD       Y5, Y0, Y0
	VCVTTPD2DQY  Y0, X0
	VPMOVZXDQ    X0, Y0
	VPSLLQ       $52, Y0, Y0
	VMULPD       Y0, Y4, Y4          // expPoly(r)·pow2(k)

	// acc += term: each query's own accumulator, rows in order.
	VADDPD Y4, Y14, Y14
	ADDQ   DI, R8
	INCQ   R13
	CMPQ   R13, BX
	JLT    row

out:
	MOVQ    acc+48(FP), AX
	VMOVUPD Y14, (AX)
	MOVQ    R13, done+64(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
