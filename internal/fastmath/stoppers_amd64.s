#include "textflag.h"

// func stoppersAsm(keys []float64, pivot float64, right bool) uint64
//
// The stopper mask of the n = len(keys) <= 64 keys: for the left scan
// (right false) bit i is !(keys[i] < pivot), for the right scan bit i
// is !(keys[n-1-i] > pivot) — leftStoppersGo's and rightStoppersGo's
// words. The mask is built over the keys that pass, four a step
// (VCMPPD LT_OQ or GT_OQ against the broadcast pivot: false on a NaN
// either side, as Go's < and > are, then VMOVMSKPD), each group's bits
// entering at the bottom as the mask moves up by four; it is
// complemented and cut to n bits once. The left scan goes from the last
// group down, so bit i is key i; the right scan from the first group up
// with each group's lanes reversed (VPERMPD $0x1B), so bit i is key
// n-1-i. A partial group of n mod 4 keys — the left scan's first, at the
// top, the right scan's first, at the bottom — is loaded through
// VMASKMOVPD under ·tailMask (windowmask_amd64.s), so the body reads
// exactly the n floats of keys, never a byte beyond. Its dead lanes'
// bits land at n and above on the left and are shifted out below bit 0
// on the right.
//
//	SI keys (the right scan: the next group)   BX full groups left
//	CX n mod 4, then shift counts   DX the next group's offset (left)
//	AX the passing mask   R10 a group's bits
//	Y1 the pivot   Y2 the partial group's lanes
TEXT ·stoppersAsm(SB), NOSPLIT, $0-48
	MOVQ  keys_base+0(FP), SI
	MOVQ  keys_len+8(FP), BX
	XORQ  AX, AX
	TESTQ BX, BX
	JEQ   empty

	VBROADCASTSD pivot+24(FP), Y1
	MOVQ         BX, CX
	ANDQ         $3, CX
	SHRQ         $2, BX
	LEAQ         ·tailMask(SB), R8
	MOVQ         $4, R9
	SUBQ         CX, R9
	VMOVDQU      (R8)(R9*8), Y2
	CMPB         right+32(FP), $0
	JNE          right

	MOVQ       BX, DX
	SHLQ       $5, DX
	VMASKMOVPD (SI)(DX*1), Y2, Y0 // all lanes dead when n mod 4 is 0
	VCMPPD     $0x11, Y1, Y0, Y0
	VMOVMSKPD  Y0, AX
	SUBQ       $32, DX
	JLT        done

lgroup:
	VMOVUPD   (SI)(DX*1), Y0
	VCMPPD    $0x11, Y1, Y0, Y0
	VMOVMSKPD Y0, R10
	SHLQ      $4, AX
	ORQ       R10, AX
	SUBQ      $32, DX
	JGE       lgroup
	JMP       done

right:
	VMASKMOVPD (SI), Y2, Y0 // all lanes dead when n mod 4 is 0
	VPERMPD    $0x1B, Y0, Y0
	VCMPPD     $0x1E, Y1, Y0, Y0
	VMOVMSKPD  Y0, AX
	LEAQ       (SI)(CX*8), SI
	MOVQ       R9, CX
	SHRQ       CX, AX
	DECQ       BX
	JLT        done

rgroup:
	VMOVUPD   (SI), Y0
	VPERMPD   $0x1B, Y0, Y0
	VCMPPD    $0x1E, Y1, Y0, Y0
	VMOVMSKPD Y0, R10
	SHLQ      $4, AX
	ORQ       R10, AX
	ADDQ      $32, SI
	DECQ      BX
	JGE       rgroup

done:
	NOTQ AX
	MOVQ $64, CX
	SUBQ keys_len+8(FP), CX
	MOVQ $-1, DX
	SHRQ CX, DX
	ANDQ DX, AX
	VZEROUPPER

empty:
	MOVQ AX, ret+40(FP)
	RET
