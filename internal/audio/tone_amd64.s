#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// tonelane<> holds the lane indices 0..7 as doubles, tonestep<> 8.0.
DATA tonelane<>+0(SB)/8, $0.0
DATA tonelane<>+8(SB)/8, $1.0
DATA tonelane<>+16(SB)/8, $2.0
DATA tonelane<>+24(SB)/8, $3.0
DATA tonelane<>+32(SB)/8, $4.0
DATA tonelane<>+40(SB)/8, $5.0
DATA tonelane<>+48(SB)/8, $6.0
DATA tonelane<>+56(SB)/8, $7.0
GLOBL tonelane<>(SB), RODATA|NOPTR, $64
DATA tonestep<>+0(SB)/8, $8.0
GLOBL tonestep<>(SB), RODATA|NOPTR, $8

// Eight samples k..k+7 of a block at byte offset off: with the block's
// s broadcast in Z24 and c in Z25, o[k] += s*cosK[k] + c*sinK[k] as two
// multiplies, their sum and the add into o, never a fused multiply-add.
#define MIX8(off, cosk, sink, p, q) \
	VMULPD  cosk, Z24, p; \
	VMULPD  sink, Z25, q; \
	VADDPD  q, p, p; \
	VADDPD  off(DI), p, p; \
	VMOVUPD p, off(DI)

// MIX8 for the lanes set in the opmask k: the others are neither read
// nor written, so a partial block's lanes outside out are never touched.
#define PART8(off, cosk, sink, k) \
	VMULPD    cosk, Z24, Z26; \
	VMULPD    sink, Z25, Z27; \
	VADDPD    Z27, Z26, Z26; \
	VMOVUPD.Z off(DI), k, Z27; \
	VADDPD    Z27, Z26, Z26; \
	VMOVUPD   Z26, k, off(DI)

// PART8 with the envelope: sample i (Z13 holds the eight lanes' i) is
// scaled by min(i, n-1-i, edge)/edge (n-1 in Z11, edge in Z12), and Z13
// steps on to the next eight. The operands are exact integers, so the
// quotient rounds as the scalar i/edge or (n-1-i)/edge does, and a lane
// clear of both ramps scales by exactly 1.
#define RAMP8(off, cosk, sink, k) \
	VSUBPD    Z13, Z11, Z15; \
	VMINPD    Z15, Z13, Z14; \
	VADDPD.BCST tonestep<>(SB), Z13, Z13; \
	VMINPD    Z12, Z14, Z14; \
	VDIVPD    Z12, Z14, Z14; \
	VMULPD    cosk, Z24, Z26; \
	VMULPD    sink, Z25, Z27; \
	VADDPD    Z27, Z26, Z26; \
	VMULPD    Z14, Z26, Z26; \
	VMOVUPD.Z off(DI), k, Z27; \
	VADDPD    Z27, Z26, Z26; \
	VMOVUPD   Z26, k, off(DI)

// func mixSpanAVX512(out []float64, tab *ToneTable, amp, sa, ca float64, a, first, n, edge int)
//
// Tone.mixSpan eight samples at a time. Z16-Z19 hold tab.cosK and
// Z20-Z23 tab.sinK for the whole call. Per block b, the scalar side
// computes s = amp*sa and c = amp*ca and rotates the anchor,
// sa, ca = sa*cr + ca*sr, ca*cr - sa*sr, each product rounded on its
// own, as Go does; the vector side adds the block's samples eight at a
// time: MIX8 for a whole block clear of both ramps, PART8 or RAMP8 with
// an opmask of the lanes [k0, k1) inside [first, end) otherwise.
//
// Registers: DI points at lane 0 of block b (before out when first > a),
// R13 is b, R8 first, R9 end, R11 edge and R12 n-edge.
TEXT ·mixSpanAVX512(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R9
	MOVQ tab+24(FP), SI
	MOVQ a+56(FP), R13
	MOVQ first+64(FP), R8
	MOVQ n+72(FP), R10
	MOVQ edge+80(FP), R11
	ADDQ R8, R9
	MOVQ R8, AX
	SUBQ R13, AX
	SHLQ $3, AX
	SUBQ AX, DI
	MOVQ R10, R12
	SUBQ R11, R12
	VMOVUPD 296(SI), Z16
	VMOVUPD 360(SI), Z17
	VMOVUPD 424(SI), Z18
	VMOVUPD 488(SI), Z19
	VMOVUPD 40(SI), Z20
	VMOVUPD 104(SI), Z21
	VMOVUPD 168(SI), Z22
	VMOVUPD 232(SI), Z23
	VMOVSD  amp+32(FP), X0
	VMOVSD  sa+40(FP), X1
	VMOVSD  ca+48(FP), X2
	VMOVSD  24(SI), X3 // sr
	VMOVSD  32(SI), X4 // cr
	LEAQ    -1(R10), AX
	VCVTSI2SDQ AX, X11, X11
	VBROADCASTSD X11, Z11
	VCVTSI2SDQ R11, X12, X12
	VBROADCASTSD X12, Z12

block:
	CMPQ R13, R9
	JGE  done
	VMULSD X1, X0, X5  // s = amp*sa
	VMULSD X2, X0, X6  // c = amp*ca
	VMULSD X4, X1, X7  // sa*cr
	VMULSD X3, X2, X8  // ca*sr
	VMULSD X4, X2, X9  // ca*cr
	VMULSD X3, X1, X10 // sa*sr
	VADDSD X8, X7, X1  // sa = sa*cr + ca*sr
	VSUBSD X10, X9, X2 // ca = ca*cr - sa*sr
	VBROADCASTSD X5, Z24
	VBROADCASTSD X6, Z25

	// k0 = max(first-b, 0) in CX, k1 = min(end-b, 32) in BX.
	MOVQ    R8, CX
	SUBQ    R13, CX
	XORL    DX, DX
	CMPQ    CX, DX
	CMOVQLT DX, CX
	MOVQ    R9, BX
	SUBQ    R13, BX
	MOVL    $32, DX
	CMPQ    BX, DX
	CMOVQGT DX, BX

	// SI = 1 when the block touches a ramp: edge > 0 and
	// (b < edge or b+32 > n-edge).
	XORL  SI, SI
	TESTQ R11, R11
	JZ    classified
	CMPQ  R13, R11
	JLT   ramped
	LEAQ  32(R13), AX
	CMPQ  AX, R12
	JLE   classified

ramped:
	MOVL $1, SI

classified:
	TESTQ CX, CX
	JNZ   partial
	CMPQ  BX, $32
	JNE   partial
	TESTQ SI, SI
	JNZ   partial
	MIX8(0, Z16, Z20, Z26, Z27)
	MIX8(64, Z17, Z21, Z28, Z29)
	MIX8(128, Z18, Z22, Z30, Z31)
	MIX8(192, Z19, Z23, Z26, Z27)
	JMP  next

partial:
	// Lanes [k0, k1): (1<<k1 - 1) &^ (1<<k0 - 1), eight bits per opmask.
	MOVQ  $-1, DX
	SHLQ  CX, DX
	MOVQ  BX, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	ANDQ  DX, AX
	KMOVW AX, K1
	SHRQ  $8, AX
	KMOVW AX, K2
	SHRQ  $8, AX
	KMOVW AX, K3
	SHRQ  $8, AX
	KMOVW AX, K4
	TESTQ SI, SI
	JNZ   ramp
	PART8(0, Z16, Z20, K1)
	PART8(64, Z17, Z21, K2)
	PART8(128, Z18, Z22, K3)
	PART8(192, Z19, Z23, K4)
	JMP   next

ramp:
	VCVTSI2SDQ R13, X13, X13
	VBROADCASTSD X13, Z13
	VADDPD tonelane<>(SB), Z13, Z13
	RAMP8(0, Z16, Z20, K1)
	RAMP8(64, Z17, Z21, K2)
	RAMP8(128, Z18, Z22, K3)
	RAMP8(192, Z19, Z23, K4)

next:
	ADDQ $256, DI
	ADDQ $32, R13
	JMP  block

done:
	VZEROUPPER
	RET
