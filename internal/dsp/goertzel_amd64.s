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

// func goertzelAVX2(c *[24]float64, samples []float64, s1, s2 *[24]float64)
//
// Lane group k (k = 0..5) holds resonators 4k..4k+3. Its state pair is
// (Yk, Y(k+6)): Yk is s1 and Y(k+6) is s2 after an even number of samples.
// Each sample is broadcast to every lane, and every step is Goertzel's
// s0 = x + c*s1 - s2 as a separate multiply, add and subtract, never a
// fused multiply-add, so each lane rounds exactly as Goertzel does.
// Two samples per iteration swap the roles of a pair instead of moving
// state, as the portable kernel does:
//
//	b = x + c*a - b
//	a = y + c*b - a
//
// The coefficients stay in memory; Y12 and Y13 hold the broadcast
// samples and Y14 and Y15 the products.
TEXT ·goertzelAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ samples_base+8(FP), SI
	MOVQ samples_len+16(FP), CX
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	VXORPD  Y10, Y10, Y10
	VXORPD  Y11, Y11, Y11
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   tail

pair:
	VBROADCASTSD (SI), Y12
	VBROADCASTSD 8(SI), Y13

	// b = x + c*a - b
	VMULPD  (DI), Y0, Y14
	VADDPD  Y12, Y14, Y14
	VSUBPD  Y6, Y14, Y6
	VMULPD  32(DI), Y1, Y15
	VADDPD  Y12, Y15, Y15
	VSUBPD  Y7, Y15, Y7
	VMULPD  64(DI), Y2, Y14
	VADDPD  Y12, Y14, Y14
	VSUBPD  Y8, Y14, Y8
	VMULPD  96(DI), Y3, Y15
	VADDPD  Y12, Y15, Y15
	VSUBPD  Y9, Y15, Y9
	VMULPD  128(DI), Y4, Y14
	VADDPD  Y12, Y14, Y14
	VSUBPD  Y10, Y14, Y10
	VMULPD  160(DI), Y5, Y15
	VADDPD  Y12, Y15, Y15
	VSUBPD  Y11, Y15, Y11

	// a = y + c*b - a
	VMULPD  (DI), Y6, Y14
	VADDPD  Y13, Y14, Y14
	VSUBPD  Y0, Y14, Y0
	VMULPD  32(DI), Y7, Y15
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y1, Y15, Y1
	VMULPD  64(DI), Y8, Y14
	VADDPD  Y13, Y14, Y14
	VSUBPD  Y2, Y14, Y2
	VMULPD  96(DI), Y9, Y15
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y3, Y15, Y3
	VMULPD  128(DI), Y10, Y14
	VADDPD  Y13, Y14, Y14
	VSUBPD  Y4, Y14, Y4
	VMULPD  160(DI), Y11, Y15
	VADDPD  Y13, Y15, Y15
	VSUBPD  Y5, Y15, Y5

	ADDQ $16, SI
	DECQ DX
	JNZ  pair

tail:
	MOVQ s1+32(FP), AX
	MOVQ s2+40(FP), BX
	TESTQ $1, CX
	JZ   even

	// An odd last sample takes one step, which leaves s1 in the
	// second register of each pair.
	VBROADCASTSD (SI), Y12
	VMULPD  (DI), Y0, Y14
	VADDPD  Y12, Y14, Y14
	VSUBPD  Y6, Y14, Y6
	VMULPD  32(DI), Y1, Y15
	VADDPD  Y12, Y15, Y15
	VSUBPD  Y7, Y15, Y7
	VMULPD  64(DI), Y2, Y14
	VADDPD  Y12, Y14, Y14
	VSUBPD  Y8, Y14, Y8
	VMULPD  96(DI), Y3, Y15
	VADDPD  Y12, Y15, Y15
	VSUBPD  Y9, Y15, Y9
	VMULPD  128(DI), Y4, Y14
	VADDPD  Y12, Y14, Y14
	VSUBPD  Y10, Y14, Y10
	VMULPD  160(DI), Y5, Y15
	VADDPD  Y12, Y15, Y15
	VSUBPD  Y11, Y15, Y11
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	VMOVUPD Y8, 64(AX)
	VMOVUPD Y9, 96(AX)
	VMOVUPD Y10, 128(AX)
	VMOVUPD Y11, 160(AX)
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	VMOVUPD Y4, 128(BX)
	VMOVUPD Y5, 160(BX)
	VZEROUPPER
	RET

even:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, (BX)
	VMOVUPD Y7, 32(BX)
	VMOVUPD Y8, 64(BX)
	VMOVUPD Y9, 96(BX)
	VMOVUPD Y10, 128(BX)
	VMOVUPD Y11, 160(BX)
	VZEROUPPER
	RET
