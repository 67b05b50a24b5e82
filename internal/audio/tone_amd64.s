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

// Eight samples k..k+7 of a block at byte offset off: with the block's
// s broadcast in Z24 and c in Z25, o[k] += s*cosK[k] + c*sinK[k] as two
// multiplies, their sum and the add into o, never a fused multiply-add.
#define MIX8(off, cosk, sink, p, q) \
	VMULPD  cosk, Z24, p; \
	VMULPD  sink, Z25, q; \
	VADDPD  q, p, p; \
	VADDPD  off(DI), p, p; \
	VMOVUPD p, off(DI)

// func mixBlocksAVX512(out []float64, cosK, sinK *[32]float64, amp, sa, ca, sr, cr float64) (sa2, ca2 float64)
//
// Z16-Z19 hold cosK and Z20-Z23 sinK for the whole call. Per block, the
// scalar side computes s = amp*sa and c = amp*ca and rotates the anchor,
// sa, ca = sa*cr + ca*sr, ca*cr - sa*sr, each product rounded on its
// own, as Go does; the vector side adds the 32 samples eight at a time.
TEXT ·mixBlocksAVX512(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $5, CX
	MOVQ cosK+24(FP), AX
	MOVQ sinK+32(FP), BX
	VMOVUPD (AX), Z16
	VMOVUPD 64(AX), Z17
	VMOVUPD 128(AX), Z18
	VMOVUPD 192(AX), Z19
	VMOVUPD (BX), Z20
	VMOVUPD 64(BX), Z21
	VMOVUPD 128(BX), Z22
	VMOVUPD 192(BX), Z23
	VMOVSD amp+40(FP), X0
	VMOVSD sa+48(FP), X1
	VMOVSD ca+56(FP), X2
	VMOVSD sr+64(FP), X3
	VMOVSD cr+72(FP), X4

block:
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
	MIX8(0, Z16, Z20, Z26, Z27)
	MIX8(64, Z17, Z21, Z28, Z29)
	MIX8(128, Z18, Z22, Z30, Z31)
	MIX8(192, Z19, Z23, Z26, Z27)
	ADDQ $256, DI
	DECQ CX
	JNZ  block

	VMOVSD X1, sa2+80(FP)
	VMOVSD X2, ca2+88(FP)
	VZEROUPPER
	RET
