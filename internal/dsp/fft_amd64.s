#include "textflag.h"

// func passAVX2(x, tw []complex128)
//
// One fused pair of decimation-in-time stages, as passGo runs them.
// With h = len(tw)/3, x splits into blocks of four quarters q0..q3 of
// h points, and tw into the runs w1, w2 and w3 of h twiddles. Each YMM
// register holds two complex128, so one iteration runs butterflies j
// and j+1 of a block (h is even).
//
// A complex product a*w takes VMOVDDUP and VPERMILPD $15 to broadcast
// the real and imaginary parts of w, VPERMILPD $5 to swap a's halves,
// two VMULPD and one VADDSUBPD:
//
//	(ar*wr - ai*wi, ai*wr + ar*wi)
//
// These are the products Go's complex multiply rounds, and the same
// sums with their operands swapped, which round identically; there is
// no fused multiply-add. So every output is bit-identical to passGo's.
//
// Registers: SI, R8, R11 and DX point at q0..q3 of the block; DI, R12
// and R13 at w1, w2 and w3; BX is the byte offset of butterfly j in a
// quarter and R9 a quarter's size in bytes; R10 is the end of x.
TEXT ·passAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R10
	MOVQ tw_base+24(FP), DI
	MOVQ tw_len+32(FP), AX
	XORQ DX, DX
	MOVQ $3, CX
	DIVQ CX
	TESTQ AX, AX
	JZ   done
	MOVQ AX, R9
	SHLQ $4, R9
	SHLQ $4, R10
	ADDQ SI, R10
	LEAQ (DI)(R9*1), R12
	LEAQ (R12)(R9*1), R13

block:
	LEAQ (SI)(R9*1), R8
	LEAQ (R8)(R9*1), R11
	LEAQ (R11)(R9*1), DX
	XORQ BX, BX

butterfly:
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (R8)(BX*1), Y1
	VMOVUPD (R11)(BX*1), Y2
	VMOVUPD (DX)(BX*1), Y3
	VMOVDDUP (DI)(BX*1), Y4
	VPERMILPD $15, (DI)(BX*1), Y5

	// b = a1*w1; a0, a1 = a0+b, a0-b
	VPERMILPD $5, Y1, Y6
	VMULPD    Y4, Y1, Y7
	VMULPD    Y5, Y6, Y6
	VADDSUBPD Y6, Y7, Y7
	VADDPD    Y7, Y0, Y8
	VSUBPD    Y7, Y0, Y1

	// b = a3*w1; a2, a3 = a2+b, a2-b
	VPERMILPD $5, Y3, Y6
	VMULPD    Y4, Y3, Y7
	VMULPD    Y5, Y6, Y6
	VADDSUBPD Y6, Y7, Y7
	VADDPD    Y7, Y2, Y0
	VSUBPD    Y7, Y2, Y3

	// b = a2*w2; q0, q2 = a0+b, a0-b
	VMOVDDUP (R12)(BX*1), Y4
	VPERMILPD $15, (R12)(BX*1), Y5
	VPERMILPD $5, Y0, Y6
	VMULPD    Y4, Y0, Y7
	VMULPD    Y5, Y6, Y6
	VADDSUBPD Y6, Y7, Y7
	VADDPD    Y7, Y8, Y9
	VSUBPD    Y7, Y8, Y10
	VMOVUPD   Y9, (SI)(BX*1)
	VMOVUPD   Y10, (R11)(BX*1)

	// b = a3*w3; q1, q3 = a1+b, a1-b
	VMOVDDUP (R13)(BX*1), Y4
	VPERMILPD $15, (R13)(BX*1), Y5
	VPERMILPD $5, Y3, Y6
	VMULPD    Y4, Y3, Y7
	VMULPD    Y5, Y6, Y6
	VADDSUBPD Y6, Y7, Y7
	VADDPD    Y7, Y1, Y9
	VSUBPD    Y7, Y1, Y10
	VMOVUPD   Y9, (R8)(BX*1)
	VMOVUPD   Y10, (DX)(BX*1)

	ADDQ $32, BX
	CMPQ BX, R9
	JB   butterfly

	LEAQ (DX)(R9*1), SI
	CMPQ SI, R10
	JB   block
	VZEROUPPER

done:
	RET
