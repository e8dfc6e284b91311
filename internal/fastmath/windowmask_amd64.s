#include "textflag.h"

// The lanes of a group of n <= 4 float64s: the 32 bytes at
// ·tailMask+8·(4-n) are n all-ones quadwords, then zeros. The one
// table of the package: stoppers_amd64.s loads its partial groups
// through it too.
DATA  ·tailMask+0(SB)/8, $-1
DATA  ·tailMask+8(SB)/8, $-1
DATA  ·tailMask+16(SB)/8, $-1
DATA  ·tailMask+24(SB)/8, $-1
DATA  ·tailMask+32(SB)/8, $0
DATA  ·tailMask+40(SB)/8, $0
DATA  ·tailMask+48(SB)/8, $0
DATA  ·tailMask+56(SB)/8, $0
GLOBL ·tailMask(SB), RODATA|NOPTR, $64

// A reference sweep's start: bit 0 in every lane of Y14, no bits in the
// masks Y15, AX at the first reference, CX references to go.
#define WSTART \
	VPCMPEQQ Y14, Y14, Y14 \
	VPSRLQ   $63, Y14, Y14 \
	VPXOR    Y15, Y15, Y15 \
	MOVQ     R9, AX        \
	MOVQ     R11, CX

// One dimension's squared offset for the four query lanes in qreg:
// the reference's coordinate at mem broadcast, q-r (VSUBPD b, a, dst is
// a-b: the Go loop's operand order), squared.
#define WSQ(mem, qreg, sq) \
	VBROADCASTSD mem, sq       \
	VSUBPD       sq, qreg, sq  \
	VMULPD       sq, sq, sq

// The lanes whose s in Y4 lies strictly inside (lo2, hi2) take the
// reference's bit from Y14 into Y15; then Y14 moves on to the next bit,
// AX to the next reference, and CX counts it. LT_OQ is false on a NaN
// either side, as Go's < is.
#define WBIT \
	VCMPPD $0x11, Y4, Y12, Y5  \
	VCMPPD $0x11, Y13, Y4, Y6  \
	VANDPD Y6, Y5, Y5          \
	VPAND  Y14, Y5, Y5         \
	VPOR   Y5, Y15, Y15        \
	VPADDQ Y14, Y14, Y14       \
	ADDQ   $8, AX              \
	DECQ   CX

// func windowMaskColsAsm(m *uint64, nq, d int, q *float64, qstride int, r *float64, rstride, nr int, lo2, hi2 float64)
//
// Bit k of m[i] is lo2 < s && s < hi2 for s the squared distance between
// query i < nq and reference k < nr, 1 <= nq, nr <= 64, 1 <= d <= 4;
// dimension j of query i is q[j·qstride+i], of reference k
// r[j·rstride+k]. Each lane holds one query of a group of four and
// every step broadcasts one reference: every lane of every instruction
// is the IEEE operation, operand order included, that windowMaskColsGo
// performs for one pair — Hypot2's order, ((d0²)+d1²)+d2² up to d = 3
// and (d0²+d1²)+(d2²+d3²) at d = 4. There is no fused multiply-add in
// this file and there must never be one. The last group's queries and
// masks move through VMASKMOVPD under the lane mask Y7, so it reads the
// nq floats of each of the d query columns, the nr of each reference
// column, and writes the nq words at m, never a byte beyond.
//
//	SI the group's first query   R8, R14 qstride and 3·qstride in bytes
//	DI the group's masks   BX queries left   R12 d
//	R9 r   R10, R13 rstride and 3·rstride in bytes   R11 nr
//	AX the reference   CX references left
//	Y7 the group's live lanes   Y8..Y11 the queries' d coordinates
//	Y12 lo2   Y13 hi2   Y14 the reference's bit   Y15 the masks
TEXT ·windowMaskColsAsm(SB), NOSPLIT, $0-80
	MOVQ         m+0(FP), DI
	MOVQ         nq+8(FP), BX
	MOVQ         d+16(FP), R12
	MOVQ         q+24(FP), SI
	MOVQ         qstride+32(FP), R8
	MOVQ         r+40(FP), R9
	MOVQ         rstride+48(FP), R10
	MOVQ         nr+56(FP), R11
	VBROADCASTSD lo2+64(FP), Y12
	VBROADCASTSD hi2+72(FP), Y13
	SHLQ         $3, R8
	LEAQ         (R8)(R8*2), R14
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R13
	VPCMPEQQ     Y7, Y7, Y7

wgroup:
	CMPQ    BX, $4
	JGE     wload
	LEAQ    ·tailMask(SB), AX
	MOVQ    $4, CX
	SUBQ    BX, CX
	VMOVDQU (AX)(CX*8), Y7

wload:
	VMASKMOVPD (SI), Y7, Y8
	CMPQ       R12, $2
	JLT        w1
	VMASKMOVPD (SI)(R8*1), Y7, Y9
	JEQ        w2
	VMASKMOVPD (SI)(R8*2), Y7, Y10
	CMPQ       R12, $4
	JLT        w3
	VMASKMOVPD (SI)(R14*1), Y7, Y11
	JMP        w4

w1:
	WSTART

w1ref:
	WSQ((AX), Y8, Y4)
	WBIT
	JNZ w1ref
	JMP wstore

w2:
	WSTART

w2ref:
	WSQ((AX), Y8, Y4)
	WSQ((AX)(R10*1), Y9, Y1)
	VADDPD Y1, Y4, Y4
	WBIT
	JNZ    w2ref
	JMP    wstore

w3:
	WSTART

w3ref:
	WSQ((AX), Y8, Y4)
	WSQ((AX)(R10*1), Y9, Y1)
	WSQ((AX)(R10*2), Y10, Y2)
	VADDPD Y1, Y4, Y4
	VADDPD Y2, Y4, Y4
	WBIT
	JNZ    w3ref
	JMP    wstore

w4:
	WSTART

w4ref:
	WSQ((AX), Y8, Y4)
	WSQ((AX)(R10*1), Y9, Y1)
	WSQ((AX)(R10*2), Y10, Y2)
	WSQ((AX)(R13*1), Y11, Y3)
	VADDPD Y1, Y4, Y4
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y4, Y4
	WBIT
	JNZ    w4ref

wstore:
	VMASKMOVPD Y15, Y7, (DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $4, BX
	JGT        wgroup
	VZEROUPPER
	RET
