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

// signeven<> flips the sign of the even (real) lanes of a ZMM register.
DATA signeven<>+0(SB)/8, $0x8000000000000000
DATA signeven<>+8(SB)/8, $0
DATA signeven<>+16(SB)/8, $0x8000000000000000
DATA signeven<>+24(SB)/8, $0
DATA signeven<>+32(SB)/8, $0x8000000000000000
DATA signeven<>+40(SB)/8, $0
DATA signeven<>+48(SB)/8, $0x8000000000000000
DATA signeven<>+56(SB)/8, $0
GLOBL signeven<>(SB), RODATA|NOPTR, $64

// TWIDDLE(w, wr, wis) splits the four complex twiddles in w into wr,
// each real part in both lanes of its pair, and wis, the imaginary part
// in both lanes with the real lane's sign flipped: (-wi, wi).
#define TWIDDLE(w, wr, wis) \
	VMOVDDUP  w, wr; \
	VPERMILPD $0xFF, w, wis; \
	VPXORQ    signeven<>(SB), wis, wis

// TWIDDLEM is TWIDDLE from memory: the duplication of the real parts
// is a load, which keeps it off the shuffle port.
#define TWIDDLEM(w, wr, wis) \
	VMOVDDUP  w, wr; \
	VPERMILPD $0xFF, w, wis; \
	VPXORQ    signeven<>(SB), wis, wis

// CMUL(a, wr, wis, dst, t) sets dst = a*w for the twiddles split by
// TWIDDLE, as two VMULPD and one VADDPD:
//
//	(ar*wr + ai*(-wi), ai*wr + ar*wi)
//
// AVX-512 has no VADDSUBPD; ai*(-wi) is -(ai*wi) exactly, and
// ar*wr + (-(ai*wi)) rounds as ar*wr - ai*wi does, so dst is
// bit-identical to passAVX2's and to Go's complex multiply.
#define CMUL(a, wr, wis, dst, t) \
	VPERMILPD $0x55, a, t; \
	VMULPD    wr, a, dst; \
	VMULPD    wis, t, t; \
	VADDPD    t, dst, dst

// func passAVX512(x, tw []complex128)
//
// passAVX2 four butterflies at a time: each ZMM register holds four
// complex128, so one iteration runs butterflies j..j+3 of a block. h must
// be a multiple of four. Registers as in passAVX2.
TEXT ·passAVX512(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R10
	MOVQ tw_base+24(FP), DI
	MOVQ tw_len+32(FP), AX
	XORQ DX, DX
	MOVQ $3, CX
	DIVQ CX
	TESTQ AX, AX
	JZ   pdone
	MOVQ AX, R9
	SHLQ $4, R9
	SHLQ $4, R10
	ADDQ SI, R10
	LEAQ (DI)(R9*1), R12
	LEAQ (R12)(R9*1), R13

pblock:
	LEAQ (SI)(R9*1), R8
	LEAQ (R8)(R9*1), R11
	LEAQ (R11)(R9*1), DX
	XORQ BX, BX

pbutterfly:
	VMOVUPD (SI)(BX*1), Z0
	VMOVUPD (R8)(BX*1), Z1
	VMOVUPD (R11)(BX*1), Z2
	VMOVUPD (DX)(BX*1), Z3
	TWIDDLEM((DI)(BX*1), Z5, Z6)

	// b = a1*w1; a0, a1 = a0+b, a0-b
	CMUL(Z1, Z5, Z6, Z8, Z7)
	VADDPD Z8, Z0, Z9
	VSUBPD Z8, Z0, Z1

	// b = a3*w1; a2, a3 = a2+b, a2-b
	CMUL(Z3, Z5, Z6, Z8, Z7)
	VADDPD Z8, Z2, Z0
	VSUBPD Z8, Z2, Z3

	// b = a2*w2; q0, q2 = a0+b, a0-b
	TWIDDLEM((R12)(BX*1), Z5, Z6)
	CMUL(Z0, Z5, Z6, Z8, Z7)
	VADDPD  Z8, Z9, Z10
	VSUBPD  Z8, Z9, Z11
	VMOVUPD Z10, (SI)(BX*1)
	VMOVUPD Z11, (R11)(BX*1)

	// b = a3*w3; q1, q3 = a1+b, a1-b
	TWIDDLEM((R13)(BX*1), Z5, Z6)
	CMUL(Z3, Z5, Z6, Z8, Z7)
	VADDPD  Z8, Z1, Z10
	VSUBPD  Z8, Z1, Z11
	VMOVUPD Z10, (R8)(BX*1)
	VMOVUPD Z11, (DX)(BX*1)

	ADDQ $64, BX
	CMPQ BX, R9
	JB   pbutterfly

	LEAQ (DX)(R9*1), SI
	CMPQ SI, R10
	JB   pblock
	VZEROUPPER

pdone:
	RET

// laneiota<> is 0..7 as int64 lanes, lanestep<> 8.
DATA laneiota<>+0(SB)/8, $0
DATA laneiota<>+8(SB)/8, $1
DATA laneiota<>+16(SB)/8, $2
DATA laneiota<>+24(SB)/8, $3
DATA laneiota<>+32(SB)/8, $4
DATA laneiota<>+40(SB)/8, $5
DATA laneiota<>+48(SB)/8, $6
DATA laneiota<>+56(SB)/8, $7
GLOBL laneiota<>(SB), RODATA|NOPTR, $64
DATA lanestep<>+0(SB)/8, $8
GLOBL lanestep<>(SB), RODATA|NOPTR, $8

// ROW(r, xrow, crow, dst, zero, next) loads eight doubles of row r of x,
// scaled by the same doubles of coef: the lanes at or past lim[r] load
// as +0. Z19 holds the lanes' offsets in the row. A block wholly past
// the end of x is not loaded at all: a masked load whose masked-off
// lanes lie on an unmapped page takes a microcode assist that costs far
// more than the load.
#define ROW(r, xrow, crow, dst, zero, next) \
	VPCMPQ.BCST $1, (8*r)(R13), Z19, K1; \
	KORTESTW    K1, K1; \
	JZ          zero; \
	VMOVUPD.Z   xrow, K1, dst; \
	VMOVUPD.Z   crow, K1, Z9; \
	VMULPD      Z9, dst, dst; \
	JMP         next; \
zero: \
	VPXORQ      dst, dst, dst; \
next:

// ROWN is ROW without a window.
#define ROWN(r, xrow, dst, zero, next) \
	VPCMPQ.BCST $1, (8*r)(R13), Z19, K1; \
	KORTESTW    K1, K1; \
	JZ          zero; \
	VMOVUPD.Z   xrow, K1, dst; \
	JMP         next; \
zero: \
	VPXORQ      dst, dst, dst; \
next:

// GROUPS runs the size-2 stage and pass 0 (stages 4 and 8) on slots
// u = 0..7 of four groups, held in Z0..Z7 (lane g of Zu is slot u of
// group g), transposes them and stores each group's eight slots as one
// 128-byte run: group 0 at AX, 1 at AX+8H, 2 at AX+4H and 3 at AX+12H.
// The butterflies are passGo's, in its order; the twiddles w1, w2 and w3
// of butterflies j = 0 and 1 are split in Z20-Z31.
#define GROUPS \
	VADDPD Z1, Z0, Z8; \
	VSUBPD Z1, Z0, Z1; \
	VADDPD Z3, Z2, Z0; \
	VSUBPD Z3, Z2, Z3; \
	VADDPD Z5, Z4, Z2; \
	VSUBPD Z5, Z4, Z5; \
	VADDPD Z7, Z6, Z4; \
	VSUBPD Z7, Z6, Z7; \
	CMUL(Z0, Z20, Z21, Z9, Z10); \
	VADDPD Z9, Z8, Z11; \
	VSUBPD Z9, Z8, Z8; \
	CMUL(Z4, Z20, Z21, Z9, Z10); \
	VADDPD Z9, Z2, Z0; \
	VSUBPD Z9, Z2, Z2; \
	CMUL(Z0, Z24, Z25, Z9, Z10); \
	VADDPD Z9, Z11, Z12; \
	VSUBPD Z9, Z11, Z16; \
	CMUL(Z2, Z28, Z29, Z9, Z10); \
	VADDPD Z9, Z8, Z14; \
	VSUBPD Z9, Z8, Z18; \
	CMUL(Z3, Z22, Z23, Z9, Z10); \
	VADDPD Z9, Z1, Z11; \
	VSUBPD Z9, Z1, Z1; \
	CMUL(Z7, Z22, Z23, Z9, Z10); \
	VADDPD Z9, Z5, Z3; \
	VSUBPD Z9, Z5, Z5; \
	CMUL(Z3, Z26, Z27, Z9, Z10); \
	VADDPD Z9, Z11, Z13; \
	VSUBPD Z9, Z11, Z17; \
	CMUL(Z5, Z30, Z31, Z9, Z10); \
	VADDPD Z9, Z1, Z15; \
	VSUBPD Z9, Z1, Z6; \
	VSHUFF64X2 $0x44, Z13, Z12, Z0; \
	VSHUFF64X2 $0xEE, Z13, Z12, Z1; \
	VSHUFF64X2 $0x44, Z15, Z14, Z2; \
	VSHUFF64X2 $0xEE, Z15, Z14, Z3; \
	VSHUFF64X2 $0x88, Z2, Z0, Z4; \
	VSHUFF64X2 $0xDD, Z2, Z0, Z5; \
	VSHUFF64X2 $0x88, Z3, Z1, Z7; \
	VSHUFF64X2 $0xDD, Z3, Z1, Z8; \
	VMOVUPD Z4, (AX); \
	VMOVUPD Z5, (AX)(R11*4); \
	VMOVUPD Z7, (AX)(R11*2); \
	VMOVUPD Z8, (AX)(R12*2); \
	VSHUFF64X2 $0x44, Z17, Z16, Z0; \
	VSHUFF64X2 $0xEE, Z17, Z16, Z1; \
	VSHUFF64X2 $0x44, Z6, Z18, Z2; \
	VSHUFF64X2 $0xEE, Z6, Z18, Z3; \
	VSHUFF64X2 $0x88, Z2, Z0, Z4; \
	VSHUFF64X2 $0xDD, Z2, Z0, Z5; \
	VSHUFF64X2 $0x88, Z3, Z1, Z7; \
	VSHUFF64X2 $0xDD, Z3, Z1, Z8; \
	VMOVUPD Z4, 64(AX); \
	VMOVUPD Z5, 64(AX)(R11*4); \
	VMOVUPD Z7, 64(AX)(R11*2); \
	VMOVUPD Z8, 64(AX)(R12*2)

// GROUPADDR sets AX to the first slot of this iteration's group 0:
// z + 4*rev[m], since group rev(m)>>5 starts at byte 128*(rev[m]>>5)
// and the low five bits of rev[m] are zero.
#define GROUPADDR \
	MOVLQSX (BX), AX; \
	SHLQ    $2, AX; \
	ADDQ    DI, AX

// func frontAVX512(z []complex128, x, coef []float64, rev []int32, tw []complex128, lim *[8]int64)
//
// The packing pass, the size-2 stage and pass 0 of the H-point half
// transform (H = len(z) >= 32) in one pass over x. Slot 8i+u holds packed
// point rev(i) + (H/8)·rev₃(u), so stages 2, 4 and 8 act on H/8 groups
// of eight slots apart. Row r = rev₃(u) of x, the H/4 doubles from
// r·H/4, holds the slot-u points of every group; iteration m loads
// doubles 8m..8m+7 of each row, the slot-u points of the four groups
// rev(i) = 4m..4m+3, which are groups rev[m]>>5 + {0, G/2, G/4, 3G/4}
// for G = H/8 and rev the half plan's bit reversal. coef scales each
// sample when non-nil (len(coef) >= len(x)); lim[r] = len(x) - r·H/4 is
// the number of doubles of row r inside x, past which a lane loads as
// +0, as packedAt reads it. tw is the half plan's pass-0 table.
//
// Registers: DI is z, BX walks rev, CX counts iterations, SI and R8 walk
// rows 0 and 1 of x, R9 and R10 those of coef; R11 is a row's size in
// bytes (2H) and R12 three rows; R13 is lim.
TEXT ·frontAVX512(SB), NOSPLIT, $0-128
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), R11
	MOVQ x_base+24(FP), SI
	MOVQ coef_base+48(FP), R9
	MOVQ rev_base+72(FP), BX
	MOVQ rev_len+80(FP), CX
	MOVQ tw_base+96(FP), DX
	MOVQ lim+120(FP), R13
	SHLQ $1, R11
	LEAQ (R11)(R11*2), R12
	LEAQ (SI)(R11*1), R8
	LEAQ (R9)(R11*1), R10

	VBROADCASTF32X4 (DX), Z0
	TWIDDLE(Z0, Z20, Z21)
	VBROADCASTF32X4 16(DX), Z0
	TWIDDLE(Z0, Z22, Z23)
	VBROADCASTF32X4 32(DX), Z0
	TWIDDLE(Z0, Z24, Z25)
	VBROADCASTF32X4 48(DX), Z0
	TWIDDLE(Z0, Z26, Z27)
	VBROADCASTF32X4 64(DX), Z0
	TWIDDLE(Z0, Z28, Z29)
	VBROADCASTF32X4 80(DX), Z0
	TWIDDLE(Z0, Z30, Z31)
	VMOVDQU64 laneiota<>(SB), Z19

	TESTQ R9, R9
	JZ    rect

win:
	ROW(0, (SI), (R9), Z0, z1, n1)
	ROW(4, (SI)(R11*4), (R9)(R11*4), Z1, z2, n2)
	ROW(2, (SI)(R11*2), (R9)(R11*2), Z2, z3, n3)
	ROW(6, (SI)(R12*2), (R9)(R12*2), Z3, z4, n4)
	ROW(1, (SI)(R11*1), (R9)(R11*1), Z4, z5, n5)
	ROW(5, (R8)(R11*4), (R10)(R11*4), Z5, z6, n6)
	ROW(3, (SI)(R12*1), (R9)(R12*1), Z6, z7, n7)
	ROW(7, (R8)(R12*2), (R10)(R12*2), Z7, z8, n8)
	GROUPADDR
	GROUPS
	VPADDQ.BCST lanestep<>(SB), Z19, Z19
	ADDQ   $64, SI
	ADDQ   $64, R8
	ADDQ   $64, R9
	ADDQ   $64, R10
	ADDQ   $4, BX
	DECQ   CX
	JNZ    win
	VZEROUPPER
	RET

rect:
	ROWN(0, (SI), Z0, z9, n9)
	ROWN(4, (SI)(R11*4), Z1, z10, n10)
	ROWN(2, (SI)(R11*2), Z2, z11, n11)
	ROWN(6, (SI)(R12*2), Z3, z12, n12)
	ROWN(1, (SI)(R11*1), Z4, z13, n13)
	ROWN(5, (R8)(R11*4), Z5, z14, n14)
	ROWN(3, (SI)(R12*1), Z6, z15, n15)
	ROWN(7, (R8)(R12*2), Z7, z16, n16)
	GROUPADDR
	GROUPS
	VPADDQ.BCST lanestep<>(SB), Z19, Z19
	ADDQ   $64, SI
	ADDQ   $64, R8
	ADDQ   $4, BX
	DECQ   CX
	JNZ    rect
	VZEROUPPER
	RET

// signodd<> flips the sign of the odd (imaginary) lanes; half<> is 0.5.
DATA signodd<>+0(SB)/8, $0
DATA signodd<>+8(SB)/8, $0x8000000000000000
DATA signodd<>+16(SB)/8, $0
DATA signodd<>+24(SB)/8, $0x8000000000000000
DATA signodd<>+32(SB)/8, $0
DATA signodd<>+40(SB)/8, $0x8000000000000000
DATA signodd<>+48(SB)/8, $0
DATA signodd<>+56(SB)/8, $0x8000000000000000
GLOBL signodd<>(SB), RODATA|NOPTR, $64
DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

// func peakAVX512(dst []float64, z, tw []complex128, bins, end []int, den float64)
//
// Per run, four bins k..k+3 at a time (c of them, under the opmask K1):
// Z1 holds Z[k+l], Z2 Z[h-k-l] (loaded from Z[h-k-3] under the mirrored
// opmask K2 and its 16-byte lanes reversed) and Z3 the twiddles. split's
// operations follow in its order, a - b as a + (-b), and |X|² is
// re·re + im·im in both lanes of a bin. Each run's lanes fold into Z0 as
// acc = p > acc ? p : acc (VMAXPD with p first), from 0, which skips a
// NaN as peakGo's p > best does; acc holds no NaN and no -0, so the
// lanes reduce to the run's best in any order. A second pass turns eight
// bests at a time into (√best + √best)/den.
//
// Registers: DI walks dst, SI is z, R8 len(z), DX tw, BX bins; R12 walks
// end, R13 counts runs, R11 is the run's start in bins, R9 its bin k and
// R10 its end bin.
TEXT ·peakAVX512(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ z_base+24(FP), SI
	MOVQ z_len+32(FP), R8
	MOVQ tw_base+48(FP), DX
	MOVQ bins_base+72(FP), BX
	MOVQ end_base+96(FP), R12
	MOVQ end_len+104(FP), R13
	TESTQ R13, R13
	JZ   tdone
	VMOVUPD signodd<>(SB), Z30
	VBROADCASTSD half<>(SB), Z29
	XORQ R11, R11

trun:
	MOVQ   (R12), R10
	VPXORQ Z0, Z0, Z0
	CMPQ   R11, R10
	JGE    tmax
	MOVQ   (BX)(R11*8), R9
	MOVQ   R10, AX
	SUBQ   R11, AX
	ADDQ   R9, AX
	MOVQ   R10, R11
	MOVQ   AX, R10

tchunk:
	MOVQ R10, CX
	SUBQ R9, CX
	CMPQ CX, $4
	JLE  tlanes
	MOVQ $4, CX

tlanes:
	SHLQ  $1, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	NEGQ  CX
	ADDQ  $8, CX
	MOVL  $0xFF, AX
	SHLQ  CX, AX
	KMOVW AX, K2
	MOVQ  R9, AX
	SHLQ  $4, AX
	VMOVUPD.Z (SI)(AX*1), K1, Z1
	VMOVUPD.Z (DX)(AX*1), K1, Z3
	MOVQ  R8, AX
	SUBQ  R9, AX
	SUBQ  $3, AX
	SHLQ  $4, AX
	VMOVUPD.Z (SI)(AX*1), K2, Z2
	VSHUFF64X2 $0x1B, Z2, Z2, Z2
	VPXORQ Z30, Z2, Z2 // conj(Z[h-k])
	VADDPD Z2, Z1, Z4  // a
	VSUBPD Z2, Z1, Z5  // b
	TWIDDLE(Z3, Z6, Z7)
	CMUL(Z5, Z6, Z7, Z8, Z9) // c = w·b
	VPERMILPD $0x55, Z8, Z9
	VPXORQ Z30, Z9, Z9 // (im c, -re c)
	VADDPD Z9, Z4, Z4
	VMULPD Z29, Z4, Z4 // X
	VMULPD Z4, Z4, Z4
	VPERMILPD $0x55, Z4, Z5
	VADDPD Z5, Z4, Z4  // |X|²
	VMAXPD Z0, Z4, Z0
	ADDQ $4, R9
	CMPQ R9, R10
	JLT  tchunk

tmax:
	VEXTRACTF64X4 $1, Z0, Y1
	VMAXPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD X1, X0, X0
	VPERMILPD $1, X0, X1
	VMAXSD X1, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, R12
	DECQ R13
	JNZ  trun

	MOVQ dst_base+0(FP), DI
	MOVQ end_len+104(FP), R13
	VBROADCASTSD den+120(FP), Z28

tamp:
	CMPQ R13, $8
	JLT  tamptail
	VMOVUPD (DI), Z1
	VSQRTPD Z1, Z1
	VADDPD  Z1, Z1, Z1
	VDIVPD  Z28, Z1, Z1
	VMOVUPD Z1, (DI)
	ADDQ $64, DI
	SUBQ $8, R13
	JMP  tamp

tamptail:
	TESTQ R13, R13
	JZ    tend
	MOVQ  R13, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	VMOVUPD.Z (DI), K1, Z1
	VSQRTPD Z1, Z1
	VADDPD  Z1, Z1, Z1
	VDIVPD  Z28, Z1, Z1
	VMOVUPD Z1, K1, (DI)

tend:
	VZEROUPPER

tdone:
	RET
