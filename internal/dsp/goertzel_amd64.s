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

// One Goertzel step for chain k: b = x + c*a - b, with x broadcast from
// memory into every lane.
#define ZSTEP(x, c, a, b) \
	VMULPD      c, a, Z30; \
	VADDPD.BCST x, Z30, Z30; \
	VSUBPD      b, Z30, b

// Both steps of one sample pair for chain k: b = x + c*a - b, then
// a = y + c*b - a.
#define ZPAIR(c, a, b) \
	ZSTEP((SI), c, a, b); \
	ZSTEP(8(SI), c, b, a)

// func goertzelAVX512(c *[80]float64, chains int, samples []float64, s1, s2 *[80]float64)
//
// Chain k (k = 0..9) holds resonators 8k..8k+7. Its state pair is
// (Zk, Z(k+10)): Zk is s1 and Z(k+10) is s2 after an even number of
// samples, and Z(k+20) holds its coefficients. Each step is Goertzel's
// s0 = x + c*s1 - s2 as a separate multiply, add and subtract, never a
// fused multiply-add, with the sample broadcast from memory; Z30 holds
// the partial sum. The pair loop runs the first `chains` chains
// (1..10): it enters the unrolled chains at chain chains-1 and falls
// through to chain 0. The odd tail and the stores run all ten; the
// chains past `chains` hold zero state and leave nothing that is read.
TEXT ·goertzelAVX512(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ chains+8(FP), R8
	MOVQ samples_base+16(FP), SI
	MOVQ samples_len+24(FP), CX
	VMOVUPD (DI), Z20
	VMOVUPD 64(DI), Z21
	VMOVUPD 128(DI), Z22
	VMOVUPD 192(DI), Z23
	VMOVUPD 256(DI), Z24
	VMOVUPD 320(DI), Z25
	VMOVUPD 384(DI), Z26
	VMOVUPD 448(DI), Z27
	VMOVUPD 512(DI), Z28
	VMOVUPD 576(DI), Z29
	VPXORQ  Z0, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VPXORQ  Z6, Z6, Z6
	VPXORQ  Z7, Z7, Z7
	VPXORQ  Z8, Z8, Z8
	VPXORQ  Z9, Z9, Z9
	VPXORQ  Z10, Z10, Z10
	VPXORQ  Z11, Z11, Z11
	VPXORQ  Z12, Z12, Z12
	VPXORQ  Z13, Z13, Z13
	VPXORQ  Z14, Z14, Z14
	VPXORQ  Z15, Z15, Z15
	VPXORQ  Z16, Z16, Z16
	VPXORQ  Z17, Z17, Z17
	VPXORQ  Z18, Z18, Z18
	VPXORQ  Z19, Z19, Z19
	MOVQ CX, DX
	SHRQ $1, DX
	JZ   ztail

zpair:
	CMPQ R8, $10
	JEQ  zchain9
	CMPQ R8, $9
	JEQ  zchain8
	CMPQ R8, $8
	JEQ  zchain7
	CMPQ R8, $7
	JEQ  zchain6
	CMPQ R8, $6
	JEQ  zchain5
	CMPQ R8, $5
	JEQ  zchain4
	CMPQ R8, $4
	JEQ  zchain3
	CMPQ R8, $3
	JEQ  zchain2
	CMPQ R8, $2
	JEQ  zchain1
	JMP  zchain0

zchain9:
	ZPAIR(Z29, Z9, Z19)
zchain8:
	ZPAIR(Z28, Z8, Z18)
zchain7:
	ZPAIR(Z27, Z7, Z17)
zchain6:
	ZPAIR(Z26, Z6, Z16)
zchain5:
	ZPAIR(Z25, Z5, Z15)
zchain4:
	ZPAIR(Z24, Z4, Z14)
zchain3:
	ZPAIR(Z23, Z3, Z13)
zchain2:
	ZPAIR(Z22, Z2, Z12)
zchain1:
	ZPAIR(Z21, Z1, Z11)
zchain0:
	ZPAIR(Z20, Z0, Z10)
	ADDQ $16, SI
	DECQ DX
	JNZ  zpair

ztail:
	MOVQ s1+40(FP), AX
	MOVQ s2+48(FP), BX
	TESTQ $1, CX
	JZ   zstore

	// An odd last sample takes one step, which leaves s1 in the
	// second register of each pair: swap the destinations.
	ZSTEP((SI), Z20, Z0, Z10)
	ZSTEP((SI), Z21, Z1, Z11)
	ZSTEP((SI), Z22, Z2, Z12)
	ZSTEP((SI), Z23, Z3, Z13)
	ZSTEP((SI), Z24, Z4, Z14)
	ZSTEP((SI), Z25, Z5, Z15)
	ZSTEP((SI), Z26, Z6, Z16)
	ZSTEP((SI), Z27, Z7, Z17)
	ZSTEP((SI), Z28, Z8, Z18)
	ZSTEP((SI), Z29, Z9, Z19)
	XCHGQ AX, BX

zstore:
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	VMOVUPD Z4, 256(AX)
	VMOVUPD Z5, 320(AX)
	VMOVUPD Z6, 384(AX)
	VMOVUPD Z7, 448(AX)
	VMOVUPD Z8, 512(AX)
	VMOVUPD Z9, 576(AX)
	VMOVUPD Z10, (BX)
	VMOVUPD Z11, 64(BX)
	VMOVUPD Z12, 128(BX)
	VMOVUPD Z13, 192(BX)
	VMOVUPD Z14, 256(BX)
	VMOVUPD Z15, 320(BX)
	VMOVUPD Z16, 384(BX)
	VMOVUPD Z17, 448(BX)
	VMOVUPD Z18, 512(BX)
	VMOVUPD Z19, 576(BX)
	VZEROUPPER
	RET
