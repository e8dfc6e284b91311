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

// func sumGaussRowsAsm(c float64, q *float64, d int, rows *float64, n int, acc float64, tab *[15]float64) (done int, sum float64)
//
// Every lane of every instruction below is the IEEE operation, operand
// order included, that sumGaussRowsGo performs for one row; there is no
// fused multiply-add in this file and there must never be one.
//
//	SI q           CX d            R12 d &^ 3       DI row stride in bytes
//	R8..R11 the group's four rows  BX rows left     R13 rows done
//	Y0..Y3 distance lanes s0..s3 of the four rows   X14 acc
//	Y9 ln2Hi  Y10 0.5  Y11 log2e  Y12 expMax  Y13 expMinNormal  Y15 c
TEXT ·sumGaussRowsAsm(SB), NOSPLIT, $0-72
	MOVQ         q+8(FP), SI
	MOVQ         d+16(FP), CX
	MOVQ         rows+24(FP), R8
	MOVQ         n+32(FP), BX
	MOVQ         tab+48(FP), DX
	VMOVSD       acc+40(FP), X14
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

group:
	// Rows 1..3 of a final group of fewer than four repeat its last
	// valid row: nothing is read that the Go loop would not read, and
	// only the first BX lanes are accumulated.
	MOVQ    R8, R9
	LEAQ    (R8)(DI*1), AX
	CMPQ    BX, $2
	CMOVQGE AX, R9
	MOVQ    R9, R10
	LEAQ    (R9)(DI*1), AX
	CMPQ    BX, $3
	CMOVQGE AX, R10
	MOVQ    R10, R11
	LEAQ    (R10)(DI*1), AX
	CMPQ    BX, $4
	CMOVQGE AX, R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	TESTQ  R12, R12
	JEQ    tail

chunk:
	// s += (q - p)·(q - p), dimensions AX..AX+3 in lanes 0..3.
	VMOVUPD (SI)(AX*8), Y4
	VSUBPD  (R8)(AX*8), Y4, Y5
	VSUBPD  (R9)(AX*8), Y4, Y6
	VSUBPD  (R10)(AX*8), Y4, Y7
	VSUBPD  (R11)(AX*8), Y4, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, R12
	JLT     chunk

tail:
	// The d mod 4 last dimensions go to lane 0 one at a time, as in the
	// Go loop. The 8-byte VMOVSD loads zero lanes 1..3, which therefore
	// add (0-0)·(0-0) = +0 to sums that are >= +0 or NaN: unchanged. No
	// 32-byte load may start here — the row may end its mapping.
	CMPQ AX, CX
	JGE  hsum

taildim:
	VMOVSD (SI)(AX*8), X4
	VMOVSD (R8)(AX*8), X5
	VMOVSD (R9)(AX*8), X6
	VMOVSD (R10)(AX*8), X7
	VMOVSD (R11)(AX*8), X8
	VSUBPD Y5, Y4, Y5
	VSUBPD Y6, Y4, Y6
	VSUBPD Y7, Y4, Y7
	VSUBPD Y8, Y4, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	INCQ   AX
	CMPQ   AX, CX
	JLT    taildim

hsum:
	// (s0+s1)+(s2+s3) of the four rows a, b, c, d at once.
	VHADDPD    Y1, Y0, Y4            // a0+a1 b0+b1 a2+a3 b2+b3
	VHADDPD    Y3, Y2, Y5            // c0+c1 d0+d1 c2+c3 d2+d3
	VPERM2F128 $0x20, Y5, Y4, Y6     // a01 b01 c01 d01
	VPERM2F128 $0x31, Y5, Y4, Y7     // a23 b23 c23 d23
	VADDPD     Y7, Y6, Y6
	VMULPD     Y6, Y15, Y6           // x = c·sum

	// expMinNormal <= x <= expMax in every lane (ordered, quiet: NaN is
	// out), or the group is the Go body's.
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

	// acc += term, rows in order: the first BX lanes of at most four.
	VPERMILPD    $1, X4, X5
	VEXTRACTF128 $1, Y4, X6
	VPERMILPD    $1, X6, X7
	VADDSD       X4, X14, X14
	CMPQ         BX, $2
	JLT          finished
	VADDSD       X5, X14, X14
	CMPQ         BX, $3
	JLT          finished
	VADDSD       X6, X14, X14
	CMPQ         BX, $4
	JLT          finished
	VADDSD       X7, X14, X14
	JEQ          finished
	ADDQ         $4, R13
	SUBQ         $4, BX
	LEAQ         (R11)(DI*1), R8
	JMP          group

finished:
	// The group just added was the last one: all n rows are in.
	MOVQ n+32(FP), R13

out:
	MOVQ   R13, done+56(FP)
	VMOVSD X14, sum+64(FP)
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
