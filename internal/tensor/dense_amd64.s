#include "textflag.h"

// Vector kernels for dense.go. Every kernel performs the roundings of the
// Go kernel it replaces, in the same order and with the same operand order
// (x86 returns the first source of an operation on two NaNs, so operand
// order decides which NaN survives): products are VMULPS/MULPS, sums are
// VADDPS/ADDPS, and nothing uses FMA.

// Flags of the tile epilogue (tile* in dense.go).
#define TILE_LOAD 1
#define TILE_BIAS 2
#define TILE_RELU 4

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// One k step of a tile row: broadcast a[r,p] and accumulate
// (w·a) into the row's two accumulators — the Go kernel's s += a·w with
// the weight as the product's first operand and the sum as the add's.
#define F32_STEP(src, lo, hi) \
	VBROADCASTSS src, Y10 \
	VMULPS       Y10, Y8, Y11 \
	VMULPS       Y10, Y9, Y12 \
	VADDPS       Y11, lo, lo \
	VADDPS       Y12, hi, hi

// The bias add as AddBiasRowsInto compiles it (b + y, the bias first),
// then ReLU's sign mask (x &^ (x>>31)), on one 8-lane register.
#define BIAS(b, acc) VADDPS acc, b, acc
#define RELU(acc) \
	VPSRAD $31, acc, Y13 \
	VPANDN acc, Y13, acc

// func transBTile4(a *float32, lda int, panel *float32, kc int, out *float32, ldo int, blocks int, bias *float32, flags int)
TEXT ·transBTile4(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R8
	MOVQ panel+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ out+32(FP), DX
	MOVQ ldo+40(FP), R9
	MOVQ blocks+48(FP), BX
	LEAQ (R8)(R8*2), R12
	LEAQ (R9)(R9*2), AX
	TESTQ BX, BX
	JZ   f4done

f4block:
	TESTQ $TILE_LOAD, flags+64(FP)
	JNZ   f4load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    f4start

f4load:
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (DX)(R9*1), Y2
	VMOVUPS 32(DX)(R9*1), Y3
	VMOVUPS (DX)(R9*2), Y4
	VMOVUPS 32(DX)(R9*2), Y5
	VMOVUPS (DX)(AX*1), Y6
	VMOVUPS 32(DX)(AX*1), Y7

f4start:
	MOVQ SI, R13
	MOVQ DI, R14
	MOVQ CX, R10

f4k:
	VMOVUPS (R14), Y8
	VMOVUPS 32(R14), Y9
	F32_STEP((R13), Y0, Y1)
	F32_STEP((R13)(R8*1), Y2, Y3)
	F32_STEP((R13)(R8*2), Y4, Y5)
	F32_STEP((R13)(R12*1), Y6, Y7)
	ADDQ $4, R13
	ADDQ $64, R14
	DECQ R10
	JNZ  f4k

	TESTQ $TILE_BIAS, flags+64(FP)
	JZ    f4nobias
	MOVQ  bias+56(FP), R11
	VMOVUPS (R11), Y8
	VMOVUPS 32(R11), Y9
	BIAS(Y8, Y0)
	BIAS(Y9, Y1)
	BIAS(Y8, Y2)
	BIAS(Y9, Y3)
	BIAS(Y8, Y4)
	BIAS(Y9, Y5)
	BIAS(Y8, Y6)
	BIAS(Y9, Y7)

f4nobias:
	TESTQ $TILE_RELU, flags+64(FP)
	JZ    f4store
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)

f4store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R9*1)
	VMOVUPS Y3, 32(DX)(R9*1)
	VMOVUPS Y4, (DX)(R9*2)
	VMOVUPS Y5, 32(DX)(R9*2)
	VMOVUPS Y6, (DX)(AX*1)
	VMOVUPS Y7, 32(DX)(AX*1)
	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R9*4), DX
	DECQ BX
	JNZ  f4block

f4done:
	VZEROUPPER
	RET

// func transBTile1(a *float32, lda int, panel *float32, kc int, out *float32, ldo int, rows int, bias *float32, flags int)
TEXT ·transBTile1(SB), NOSPLIT, $0-72
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R8
	MOVQ panel+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ out+32(FP), DX
	MOVQ ldo+40(FP), R9
	MOVQ rows+48(FP), BX
	TESTQ BX, BX
	JZ   f1done

f1row:
	TESTQ $TILE_LOAD, flags+64(FP)
	JNZ   f1load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	JMP    f1start

f1load:
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1

f1start:
	MOVQ SI, R13
	MOVQ DI, R14
	MOVQ CX, R10

f1k:
	VMOVUPS (R14), Y8
	VMOVUPS 32(R14), Y9
	F32_STEP((R13), Y0, Y1)
	ADDQ $4, R13
	ADDQ $64, R14
	DECQ R10
	JNZ  f1k

	TESTQ $TILE_BIAS, flags+64(FP)
	JZ    f1nobias
	MOVQ  bias+56(FP), R11
	VMOVUPS (R11), Y8
	VMOVUPS 32(R11), Y9
	BIAS(Y8, Y0)
	BIAS(Y9, Y1)

f1nobias:
	TESTQ $TILE_RELU, flags+64(FP)
	JZ    f1store
	RELU(Y0)
	RELU(Y1)

f1store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ BX
	JNZ  f1row

f1done:
	VZEROUPPER
	RET

// dotUnrolled's four partial sums are the four lanes of one SSE register;
// its k mod 4 tail goes into lane 0 alone (MULSS/ADDSS leave lanes 1-3).
#define DOT_STEP(src, acc, t) \
	MOVUPS src, t \
	MULPS  X8, t \
	ADDPS  t, acc

#define DOT_TAIL(src, acc, t) \
	MOVSS src, t \
	MULSS X8, t \
	ADDSS t, acc

// HSUM stores dotUnrolled's (s0+s1)+(s2+s3) from the lanes of acc, with the
// Go compiler's operand order: s1+s0, s2+s3, then their sum.
#define HSUM(acc, dst) \
	MOVAPS  acc, X9 \
	SHUFPS  $0x55, X9, X9 \
	ADDSS   acc, X9 \
	MOVHLPS acc, X10 \
	MOVAPS  X10, X11 \
	SHUFPS  $0x55, X11, X11 \
	ADDSS   X11, X10 \
	ADDSS   X10, X9 \
	MOVSS   X9, dst

// func dotRows(a *float32, lda int, y *float32, k int, out *float32, ldo int, rows int)
TEXT ·dotRows(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R8
	MOVQ y+16(FP), DI
	MOVQ k+24(FP), CX
	MOVQ out+32(FP), DX
	MOVQ ldo+40(FP), R9
	MOVQ rows+48(FP), BX
	LEAQ (R8)(R8*2), R12
	LEAQ (R9)(R9*2), AX
	MOVQ CX, R11
	SHRQ $2, R11
	ANDQ $3, CX
	CMPQ BX, $4
	JLT  d1rows

d4rows:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R13
	MOVQ  DI, R14
	MOVQ  R11, R10
	TESTQ R10, R10
	JZ    d4tail

d4k:
	MOVUPS (R14), X8
	DOT_STEP((R13), X0, X4)
	DOT_STEP((R13)(R8*1), X1, X5)
	DOT_STEP((R13)(R8*2), X2, X6)
	DOT_STEP((R13)(R12*1), X3, X7)
	ADDQ $16, R13
	ADDQ $16, R14
	DECQ R10
	JNZ  d4k

d4tail:
	MOVQ  CX, R10
	TESTQ R10, R10
	JZ    d4sum

d4t:
	MOVSS (R14), X8
	DOT_TAIL((R13), X0, X4)
	DOT_TAIL((R13)(R8*1), X1, X5)
	DOT_TAIL((R13)(R8*2), X2, X6)
	DOT_TAIL((R13)(R12*1), X3, X7)
	ADDQ $4, R13
	ADDQ $4, R14
	DECQ R10
	JNZ  d4t

d4sum:
	HSUM(X0, (DX))
	HSUM(X1, (DX)(R9*1))
	HSUM(X2, (DX)(R9*2))
	HSUM(X3, (DX)(AX*1))
	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, BX
	CMPQ BX, $4
	JGE  d4rows

d1rows:
	TESTQ BX, BX
	JZ    ddone

d1row:
	XORPS X0, X0
	MOVQ  SI, R13
	MOVQ  DI, R14
	MOVQ  R11, R10
	TESTQ R10, R10
	JZ    d1tail

d1k:
	MOVUPS (R14), X8
	DOT_STEP((R13), X0, X4)
	ADDQ $16, R13
	ADDQ $16, R14
	DECQ R10
	JNZ  d1k

d1tail:
	MOVQ  CX, R10
	TESTQ R10, R10
	JZ    d1sum

d1t:
	MOVSS (R14), X8
	DOT_TAIL((R13), X0, X4)
	ADDQ $4, R13
	ADDQ $4, R14
	DECQ R10
	JNZ  d1t

d1sum:
	HSUM(X0, (DX))
	ADDQ R8, SI
	ADDQ R9, DX
	DECQ BX
	JNZ  d1row

ddone:
	RET

// One k-pair step of an int8 tile row: broadcast the row's activation pair
// and add both pair products of all 16 columns (VPMADDWD) into int32 sums.
#define Q8_STEP(src, lo, hi) \
	VPBROADCASTD src, Y10 \
	VPMADDWD     Y8, Y10, Y11 \
	VPMADDWD     Y9, Y10, Y12 \
	VPADDD       Y11, lo, lo \
	VPADDD       Y12, hi, hi

// float32(sum) · as · bs, in the Go kernel's order. Y8/Y9 hold bs.
#define Q8_SCALE(as, lo, hi) \
	VBROADCASTSS as, Y10 \
	VCVTDQ2PS    lo, lo \
	VCVTDQ2PS    hi, hi \
	VMULPS       Y10, lo, lo \
	VMULPS       Y10, hi, hi \
	VMULPS       Y8, lo, lo \
	VMULPS       Y9, hi, hi

// func q8Tile4(a *int32, lda int, panel *int32, k2 int, out *float32, ldo int, blocks int, as *float32, bs *float32, bias *float32, flags int)
TEXT ·q8Tile4(SB), NOSPLIT, $0-88
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R8
	MOVQ panel+16(FP), DI
	MOVQ k2+24(FP), CX
	MOVQ out+32(FP), DX
	MOVQ ldo+40(FP), R9
	MOVQ blocks+48(FP), BX
	MOVQ as+56(FP), R11
	LEAQ (R8)(R8*2), R12
	LEAQ (R9)(R9*2), AX
	TESTQ BX, BX
	JZ   q4done

q4block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ SI, R13
	MOVQ DI, R14
	MOVQ CX, R10

q4k:
	VMOVDQU (R14), Y8
	VMOVDQU 32(R14), Y9
	Q8_STEP((R13), Y0, Y1)
	Q8_STEP((R13)(R8*1), Y2, Y3)
	Q8_STEP((R13)(R8*2), Y4, Y5)
	Q8_STEP((R13)(R12*1), Y6, Y7)
	ADDQ $4, R13
	ADDQ $64, R14
	DECQ R10
	JNZ  q4k

	MOVQ    bs+64(FP), R10
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	Q8_SCALE((R11), Y0, Y1)
	Q8_SCALE(4(R11), Y2, Y3)
	Q8_SCALE(8(R11), Y4, Y5)
	Q8_SCALE(12(R11), Y6, Y7)

	TESTQ $TILE_BIAS, flags+80(FP)
	JZ    q4nobias
	MOVQ  bias+72(FP), R10
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	BIAS(Y8, Y0)
	BIAS(Y9, Y1)
	BIAS(Y8, Y2)
	BIAS(Y9, Y3)
	BIAS(Y8, Y4)
	BIAS(Y9, Y5)
	BIAS(Y8, Y6)
	BIAS(Y9, Y7)

q4nobias:
	TESTQ $TILE_RELU, flags+80(FP)
	JZ    q4store
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)

q4store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R9*1)
	VMOVUPS Y3, 32(DX)(R9*1)
	VMOVUPS Y4, (DX)(R9*2)
	VMOVUPS Y5, 32(DX)(R9*2)
	VMOVUPS Y6, (DX)(AX*1)
	VMOVUPS Y7, 32(DX)(AX*1)
	LEAQ (SI)(R8*4), SI
	LEAQ (DX)(R9*4), DX
	ADDQ $16, R11
	DECQ BX
	JNZ  q4block

q4done:
	VZEROUPPER
	RET

// func q8Tile1(a *int32, lda int, panel *int32, k2 int, out *float32, ldo int, rows int, as *float32, bs *float32, bias *float32, flags int)
TEXT ·q8Tile1(SB), NOSPLIT, $0-88
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), R8
	MOVQ panel+16(FP), DI
	MOVQ k2+24(FP), CX
	MOVQ out+32(FP), DX
	MOVQ ldo+40(FP), R9
	MOVQ rows+48(FP), BX
	MOVQ as+56(FP), R11
	TESTQ BX, BX
	JZ   q1done

q1row:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ SI, R13
	MOVQ DI, R14
	MOVQ CX, R10

q1k:
	VMOVDQU (R14), Y8
	VMOVDQU 32(R14), Y9
	Q8_STEP((R13), Y0, Y1)
	ADDQ $4, R13
	ADDQ $64, R14
	DECQ R10
	JNZ  q1k

	MOVQ    bs+64(FP), R10
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	Q8_SCALE((R11), Y0, Y1)

	TESTQ $TILE_BIAS, flags+80(FP)
	JZ    q1nobias
	MOVQ  bias+72(FP), R10
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	BIAS(Y8, Y0)
	BIAS(Y9, Y1)

q1nobias:
	TESTQ $TILE_RELU, flags+80(FP)
	JZ    q1store
	RELU(Y0)
	RELU(Y1)

q1store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ R8, SI
	ADDQ R9, DX
	ADDQ $4, R11
	DECQ BX
	JNZ  q1row

q1done:
	VZEROUPPER
	RET

DATA absMask<>+0(SB)/4, $0x7fffffff
DATA absMask<>+4(SB)/4, $0x7fffffff
DATA absMask<>+8(SB)/4, $0x7fffffff
DATA absMask<>+12(SB)/4, $0x7fffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $16

// float64 constants, two lanes each: 127, -127, 0.5 and the sign bit.
DATA q8Max<>+0(SB)/8, $0x405fc00000000000
DATA q8Max<>+8(SB)/8, $0x405fc00000000000
GLOBL q8Max<>(SB), RODATA|NOPTR, $16
DATA q8Min<>+0(SB)/8, $0xc05fc00000000000
DATA q8Min<>+8(SB)/8, $0xc05fc00000000000
GLOBL q8Min<>(SB), RODATA|NOPTR, $16
DATA q8Half<>+0(SB)/8, $0x3fe0000000000000
DATA q8Half<>+8(SB)/8, $0x3fe0000000000000
GLOBL q8Half<>(SB), RODATA|NOPTR, $16
DATA q8Sign<>+0(SB)/8, $0x8000000000000000
DATA q8Sign<>+8(SB)/8, $0x8000000000000000
GLOBL q8Sign<>(SB), RODATA|NOPTR, $16

// func maxAbsSSE(x *float32, n int) float32
TEXT ·maxAbsSSE(SB), NOSPLIT, $0-20
	MOVQ   x+0(FP), SI
	MOVQ   n+8(FP), CX
	MOVUPS absMask<>(SB), X2
	XORPS  X0, X0
	MOVQ   CX, BX
	SHRQ   $2, BX
	ANDQ   $3, CX
	TESTQ  BX, BX
	JZ     mtail

	// max = (|v| > max) ? |v| : max, lane by lane: a NaN never replaces
	// the running maximum, exactly as QuantizeRowsQ8's v > maxAbs test.
mloop:
	MOVUPS (SI), X1
	ANDPS  X2, X1
	MAXPS  X0, X1
	MOVAPS X1, X0
	ADDQ   $16, SI
	DECQ   BX
	JNZ    mloop

mtail:
	TESTQ CX, CX
	JZ    mreduce

mt:
	MOVSS (SI), X1
	ANDPS X2, X1
	MAXSS X0, X1
	MOVSS X1, X0
	ADDQ  $4, SI
	DECQ  CX
	JNZ   mt

mreduce:
	MOVHLPS X0, X1
	MAXPS   X1, X0
	MOVAPS  X0, X1
	SHUFPS  $0x55, X1, X1
	MAXSS   X1, X0
	MOVSS   X0, ret+16(FP)
	RET

// quantQ8 on two widened products: NaN → 0, clamp to ±127, add ±0.5 with
// the value's sign, and the truncating convert that follows.
#define QUANT(f, t) \
	MOVAPD f, t \
	CMPPD  t, t, $7 \
	ANDPD  t, f \
	MINPD  X10, f \
	MAXPD  X11, f \
	MOVAPD f, t \
	ANDPD  X13, t \
	ORPD   X12, t \
	ADDPD  t, f \
	CVTTPD2PL f, f

// func quantPairsSSE(dst *int32, src *float32, groups int, inv float32)
TEXT ·quantPairsSSE(SB), NOSPLIT, $0-28
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   groups+16(FP), CX
	MOVSS  inv+24(FP), X7
	SHUFPS $0, X7, X7
	MOVUPD q8Max<>(SB), X10
	MOVUPD q8Min<>(SB), X11
	MOVUPD q8Half<>(SB), X12
	MOVUPD q8Sign<>(SB), X13
	TESTQ  CX, CX
	JZ     qdone

qloop:
	MOVUPS     (SI), X0
	MULPS      X7, X0
	CVTPS2PD   X0, X1
	MOVHLPS    X0, X0
	CVTPS2PD   X0, X2
	QUANT(X1, X3)
	QUANT(X2, X4)
	PUNPCKLQDQ X2, X1
	PACKSSLW   X1, X1
	MOVQ       X1, (DI)
	ADDQ       $16, SI
	ADDQ       $8, DI
	DECQ       CX
	JNZ        qloop

qdone:
	RET
