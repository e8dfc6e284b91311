#include "textflag.h"

// One step for the eight keys at mem: every lane does what the Go loop
// does with one key, "if v < mn { mn = v }; if v > mx { mx = v }".
// VMINPD / VMAXPD return their second source (the first operand in this
// syntax) unless the other compares strictly below / above it, so with
// the accumulator there a NaN key is passed over, a NaN accumulator
// stays, and of two zeros the one seen first is kept — the Go loop's
// behaviour on each count.
#define STEP(mem0, mem1) \
	VMOVUPD mem0, Y4     \
	VMOVUPD mem1, Y5     \
	VMINPD  Y0, Y4, Y0   \
	VMAXPD  Y2, Y4, Y2   \
	VMINPD  Y1, Y5, Y1   \
	VMAXPD  Y3, Y5, Y3

// func minMaxColAsm(c *float64, n int) (mn, mx float64, nan bool)
//
// Lane l < 8 holds the minimum and the maximum the Go loop computes over
// c[l], c[l+8], c[l+16], … — and over keys of the column's last eight,
// which a ragged end takes in again by one load that overlaps the steps
// before it: min and max are idempotent. A lane whose first key is a NaN
// ends as one (nan, and mn and mx mean nothing); otherwise mn and mx are
// the extremes of the lanes, a zero's sign whatever the order of the
// reduction made it. n >= 8. It reads exactly the n floats at c, never a
// byte beyond.
//
//	SI the next eight keys   R8 the column's end   R9 SI + 64
//	Y0, Y1 minima   Y2, Y3 maxima   Y4, Y5 the keys of a step
TEXT ·minMaxColAsm(SB), NOSPLIT, $0-33
	MOVQ    c+0(FP), SI
	MOVQ    n+8(FP), CX
	LEAQ    (SI)(CX*8), R8
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	ADDQ    $64, SI

step:
	LEAQ 64(SI), R9
	CMPQ R9, R8
	JHI  ragged
	STEP((SI), 32(SI))
	MOVQ R9, SI
	JMP  step

ragged:
	CMPQ SI, R8
	JEQ  reduce
	STEP(-64(R8), -32(R8))

reduce:
	// UNORD_Q of a register with itself: the lanes that are NaN. A lane's
	// maximum is one exactly when its minimum is.
	VCMPPD    $3, Y0, Y0, Y4
	VCMPPD    $3, Y1, Y1, Y5
	VORPD     Y5, Y4, Y4
	VMOVMSKPD Y4, AX
	TESTQ     AX, AX
	SETNE     nan+32(FP)

	VMINPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VMINPD       X1, X0, X0
	VMAXPD       X3, X2, X2
	VPERMILPD    $1, X0, X1
	VPERMILPD    $1, X2, X3
	VMINSD       X1, X0, X0
	VMAXSD       X3, X2, X2
	VMOVSD       X0, mn+16(FP)
	VMOVSD       X2, mx+24(FP)
	VZEROUPPER
	RET
