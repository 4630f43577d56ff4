//go:build !purego

// AVX2 bodies of the hottest vecmath loops: DotBlocked2, Axpy4, sqDist4x2,
// the sorting network's compare-exchange minMaxRows, the honest worker's
// per-coordinate passes Axpy and ScaleInPlace, and the logistic link
// SigmoidInPlace, plus the CPUID / XGETBV probe that decides at init whether
// they run (kernels_amd64.go). On a CPU without AVX2 the wrappers call the
// Go loops instead, dotBlocked2Generic, axpy4Generic, sqDist4x2Generic,
// minMaxRowsGeneric, axpyGeneric and scaleInPlaceGeneric, which are also the
// body on every other GOARCH and the tests' oracle; SigmoidInPlace calls
// Sigmoid, its scalar body and oracle, there and on a CPU without FMA.
//
// Why the bits do not move in the arithmetic kernels. Each YMM lane holds
// exactly one of the Go loop's scalar accumulators (or, in axpy4, one
// independent coordinate), and a packed VADDPD / VSUBPD / VMULPD performs,
// per lane, the same IEEE 754 double operation with the same rounding as the
// ADDSD / SUBSD / MULSD the Go compiler emits for that accumulator. The
// kernels issue those lane operations in the Go loop's order, so every lane
// sees the scalar sequence of operations, operands and roundings:
//
//   - dotBlocked2: Y0 = (p0, p1, p2, p3) and Y1 = (q0, q1, q2, q3); the
//     tail adds into lane 0 only; the combine is (p0+p1)+(p2+p3) as in Go.
//   - sqDist4x2: the tile of rows a0..a3 × points p, q. Lane map:
//       Y0 = (a0·p, a1·p, a2·p, a3·p)   Y1 = (a0·q, a1·q, a2·q, a3·q)
//     that is out[0..3] and out[4..7], sqDist4x2Generic's (s0..s3) and
//     (t0..t3). A 4×4 transpose (VUNPCKLPD / VUNPCKHPD, then VPERM2F128)
//     turns four coordinates of the four rows into four columns
//     (a0[k], a1[k], a2[k], a3[k]); p[k] and q[k] are broadcast by
//     VBROADCASTSD. Coordinate k is added before k+1 in every lane, the
//     difference is row − point, and each tail coordinate is one more
//     column step of the same kind.
//   - axpy4: four coordinates per step, each d + (((a0·x0 + a1·x1) +
//     a2·x2) + a3·x3), Go's left-to-right evaluation of the expression.
//   - axpy and scaleInPlace: eight coordinates per step in two registers,
//     each dst + alpha·x (one VMULPD, one VADDPD) or v·s (one VMULPD), then
//     one coordinate per step in lane 0; a coordinate's loads come before
//     its store, so x may be dst itself.
//
// There is no FMA but one: a fused multiply-add rounds once where the Go
// loop rounds twice (Go fuses only on architectures such as arm64, never on
// amd64), so every product is a VMULPD and every sum a separate VADDPD. The
// exception is sigmoidAVX2, whose scalar body is not a Go loop but
// math.Exp, and on a CPU with AVX and FMA math.Exp is itself assembly that
// fuses: the FMA branch of math/exp_amd64.s (Shibata's branch-free method,
// built for SIMD). sigmoidAVX2 is that branch with one scalar evaluation per
// lane: the same constants, each VFNMADD231SD / VFMADD213SD / MULSD / ADDSD
// as its packed twin in the same order, CVTSD2SL (round to nearest) as
// VCVTPD2DQ, the exponent 2^k built by the same integer add and shift, then
// Sigmoid's 1 + e, numerator and one division. It runs only where math.Exp
// takes that branch (useAVX2FMA), and only on quads whose −|z| lies in
// [−708, 0], where math.Exp's path has no branch left (no special value, no
// overflow, no subnormal result); any other quad is left to Sigmoid. So
// every lane returns Sigmoid's bits, which is math.Exp's result put through
// the same IEEE operations.
//
// The VEX-scalar rule. A VEX-encoded scalar or 128-bit instruction (VADDSD,
// VMULSD, VMOVSD, …) zeroes bits 128–255 of its destination register. The
// dot tail, which adds into lane 0 only, would so lose p2 and p3 (and q2,
// q3): their upper halves are moved out with VEXTRACTF128 before it runs.
//
// VZEROUPPER ends every body. Go's compiled code uses legacy SSE
// encodings, and on many CPUs an SSE instruction that runs while the upper
// halves of the YMM registers are dirty pays a state transition or a false
// dependency on them.
//
// minMaxRows has a precondition instead: neither row holds a NaN or a −0.
// gatherTile checks exactly that before sortTileRows runs, and sends any
// tile that fails it to the per-column reference loop, so every call meets
// it. VMINPD / VMAXPD (and VMINSD / VMAXSD in the tail) return, per lane,
// the smaller / larger operand, and the second operand (b) where the two
// compare equal or either is NaN; Go's min / max order −0 below +0 and
// propagate NaN. Without NaN and −0, x == y holds only for equal bits, so
// which operand an equal pair returns does not matter and each lane's
// result has the bits of min(a[k], b[k]) / max(a[k], b[k]). ±Inf and
// subnormals compare as ordinary values in both.
//
// MXCSR is left at Go's default (round to nearest, no flush-to-zero), so
// subnormals behave as in the scalar code. Which payload a NaN result
// carries is not part of the contract (the Go compiler is free to swap a
// commutative operation's operands); that a result is NaN is. Slices need
// not be 32-byte aligned, and VEX memory operands need no alignment, so
// every load is an unaligned one.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
// The low half of XCR0. XGETBV faults unless CPUID.1:ECX.OSXSAVE is set,
// which is why hasAVX2 checks that bit before it calls this.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func dotBlocked2AVX2(a, b0, b1 []float64) (p, q float64)
TEXT ·dotBlocked2AVX2(SB), NOSPLIT, $0-88
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b0_base+24(FP), R8
	MOVQ   b1_base+48(FP), R9
	VXORPD Y0, Y0, Y0 // (p0, p1, p2, p3)
	VXORPD Y1, Y1, Y1 // (q0, q1, q2, q3)
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-4, BX
	JZ     dot2tail

dot2loop:
	VMOVUPD (SI)(AX*8), Y4      // a[i..i+3]
	VMULPD  (R8)(AX*8), Y4, Y5  // a·b0
	VMULPD  (R9)(AX*8), Y4, Y6  // a·b1
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     dot2loop

dot2tail:
	VEXTRACTF128 $1, Y0, X2 // (p2, p3), before a scalar op zeroes them
	VEXTRACTF128 $1, Y1, X3 // (q2, q3)

dot2tailloop:
	CMPQ   AX, CX
	JGE    dot2combine
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VMULSD (R9)(AX*8), X4, X6
	VADDSD X5, X0, X0         // p0; lane 1 (p1) is kept
	VADDSD X6, X1, X1         // q0
	INCQ   AX
	JMP    dot2tailloop

dot2combine:
	VUNPCKHPD X0, X0, X4 // p1
	VADDSD    X4, X0, X0 // p0 + p1
	VUNPCKHPD X2, X2, X5 // p3
	VADDSD    X5, X2, X2 // p2 + p3
	VADDSD    X2, X0, X0
	VUNPCKHPD X1, X1, X6
	VADDSD    X6, X1, X1
	VUNPCKHPD X3, X3, X7
	VADDSD    X7, X3, X3
	VADDSD    X3, X1, X1
	VMOVSD    X0, p+72(FP)
	VMOVSD    X1, q+80(FP)
	VZEROUPPER
	RET

// SQCOL adds one column col = (a0[k], a1[k], a2[k], a3[k]) of the tile to
// Y0 and Y1: p[k] and q[k], off bytes past coordinate AX, are broadcast to
// every lane, subtracted from the rows, squared and added.
#define SQCOL(col, off) \
	VBROADCASTSD off(SI)(AX*8), Y12; \
	VBROADCASTSD off(DX)(AX*8), Y13; \
	VSUBPD       Y12, col, Y12;      \
	VSUBPD       Y13, col, Y13;      \
	VMULPD       Y12, Y12, Y12;      \
	VMULPD       Y13, Y13, Y13;      \
	VADDPD       Y12, Y0, Y0;        \
	VADDPD       Y13, Y1, Y1

// func sqDist4x2AVX2(out *[8]float64, a0, a1, a2, a3, p, q []float64)
TEXT ·sqDist4x2AVX2(SB), NOSPLIT, $0-152
	MOVQ   out+0(FP), DI
	MOVQ   a0_base+8(FP), R8
	MOVQ   a1_base+32(FP), R9
	MOVQ   a2_base+56(FP), R10
	MOVQ   a3_base+80(FP), R11
	MOVQ   p_base+104(FP), SI
	MOVQ   p_len+112(FP), CX
	MOVQ   q_base+128(FP), DX
	VXORPD Y0, Y0, Y0 // (a0·p, a1·p, a2·p, a3·p)
	VXORPD Y1, Y1, Y1 // (a0·q, a1·q, a2·q, a3·q)
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-4, BX
	JZ     sq4x2tail

sq4x2loop:
	VMOVUPD    (R8)(AX*8), Y4      // a0[k..k+3]
	VMOVUPD    (R9)(AX*8), Y5      // a1[k..k+3]
	VMOVUPD    (R10)(AX*8), Y6     // a2[k..k+3]
	VMOVUPD    (R11)(AX*8), Y7     // a3[k..k+3]
	VUNPCKLPD  Y5, Y4, Y8          // a0[k], a1[k], a0[k+2], a1[k+2]
	VUNPCKHPD  Y5, Y4, Y9          // a0[k+1], a1[k+1], a0[k+3], a1[k+3]
	VUNPCKLPD  Y7, Y6, Y10         // a2[k], a3[k], a2[k+2], a3[k+2]
	VUNPCKHPD  Y7, Y6, Y11         // a2[k+1], a3[k+1], a2[k+3], a3[k+3]
	VPERM2F128 $0x20, Y10, Y8, Y4  // column k: low halves of Y8, Y10
	VPERM2F128 $0x20, Y11, Y9, Y5  // column k+1
	VPERM2F128 $0x31, Y10, Y8, Y6  // column k+2: high halves
	VPERM2F128 $0x31, Y11, Y9, Y7  // column k+3
	SQCOL(Y4, 0)
	SQCOL(Y5, 8)
	SQCOL(Y6, 16)
	SQCOL(Y7, 24)
	ADDQ       $4, AX
	CMPQ       AX, BX
	JLT        sq4x2loop

sq4x2tail:
	CMPQ        AX, CX
	JGE         sq4x2done
	VMOVSD      (R8)(AX*8), X4
	VMOVHPD     (R9)(AX*8), X4, X4   // a0[k], a1[k]
	VMOVSD      (R10)(AX*8), X6
	VMOVHPD     (R11)(AX*8), X6, X6  // a2[k], a3[k]
	VINSERTF128 $1, X6, Y4, Y4       // column k
	SQCOL(Y4, 0)
	INCQ        AX
	JMP         sq4x2tail

sq4x2done:
	VMOVUPD Y0, (DI)   // out[0..3]
	VMOVUPD Y1, 32(DI) // out[4..7]
	VZEROUPPER
	RET

// func axpy4AVX2(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         d_base+0(FP), DI
	MOVQ         d_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	MOVQ         x0_base+32(FP), R8
	VBROADCASTSD a1+56(FP), Y1
	MOVQ         x1_base+64(FP), R9
	VBROADCASTSD a2+88(FP), Y2
	MOVQ         x2_base+96(FP), R10
	VBROADCASTSD a3+120(FP), Y3
	MOVQ         x3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX
	JZ           axpy4tail

axpy4loop:
	VMULPD  (R8)(AX*8), Y0, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VMULPD  (R11)(AX*8), Y3, Y7
	VADDPD  Y5, Y4, Y4         // a0·x0 + a1·x1
	VADDPD  Y6, Y4, Y4         // + a2·x2
	VADDPD  Y7, Y4, Y4         // + a3·x3
	VADDPD  (DI)(AX*8), Y4, Y4 // d + …
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     axpy4loop

axpy4tail:
	CMPQ   AX, CX
	JGE    axpy4done
	VMULSD (R8)(AX*8), X0, X4
	VMULSD (R9)(AX*8), X1, X5
	VMULSD (R10)(AX*8), X2, X6
	VMULSD (R11)(AX*8), X3, X7
	VADDSD X5, X4, X4
	VADDSD X6, X4, X4
	VADDSD X7, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4tail

axpy4done:
	VZEROUPPER
	RET

// func minMaxRowsAVX2(a, b []float64)
TEXT ·minMaxRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   minmaxtail

minmaxloop:
	VMOVUPD (SI)(AX*8), Y0 // a[k..k+3]
	VMOVUPD (DI)(AX*8), Y1 // b[k..k+3]
	VMINPD  Y1, Y0, Y2     // min(a, b)
	VMAXPD  Y1, Y0, Y3     // max(a, b)
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     minmaxloop

minmaxtail:
	CMPQ   AX, CX
	JGE    minmaxdone
	VMOVSD (SI)(AX*8), X0
	VMOVSD (DI)(AX*8), X1
	VMINSD X1, X0, X2
	VMAXSD X1, X0, X3
	VMOVSD X2, (SI)(AX*8)
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    minmaxtail

minmaxdone:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, dst []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         dst_base+32(FP), DI
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           axpytail

axpyloop:
	VMULPD  (SI)(AX*8), Y0, Y1    // alpha·x[k..k+3]
	VMULPD  32(SI)(AX*8), Y0, Y2  // alpha·x[k+4..k+7]
	VADDPD  (DI)(AX*8), Y1, Y1    // dst + …
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     axpyloop

axpytail:
	CMPQ   AX, CX
	JGE    axpydone
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpytail

axpydone:
	VZEROUPPER
	RET

// func scaleInPlaceAVX2(s float64, v []float64)
TEXT ·scaleInPlaceAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD s+0(FP), Y0
	MOVQ         v_base+8(FP), DI
	MOVQ         v_len+16(FP), CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-8, BX
	JZ           scaletail

scaleloop:
	VMULPD  (DI)(AX*8), Y0, Y1   // v[k..k+3]·s
	VMULPD  32(DI)(AX*8), Y0, Y2 // v[k+4..k+7]·s
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     scaleloop

scaletail:
	CMPQ   AX, CX
	JGE    scaledone
	VMULSD (DI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    scaletail

scaledone:
	VZEROUPPER
	RET

// The constants of math.Exp's amd64 body (math/exp_amd64.s), written as the
// same literals so they assemble to the same bits, each in all four lanes of
// a 32-byte row so that it can be a VEX memory operand: the sign bit, the
// −708 bound, LOG2E, LN2U, LN2L, the 1/16 of the argument reduction, the
// Taylor coefficients 1/8! … 1/3!, 0.5 and 1.0 (exprodata<>+64 … +0, +8),
// 2.0 (exprodata<>+16), and the exponent bias 0x3FF as a 64-bit integer.
#define SIGROW(row, v) \
	DATA sigmoiddata<>+(row*32)(SB)/8, v; \
	DATA sigmoiddata<>+(row*32+8)(SB)/8, v; \
	DATA sigmoiddata<>+(row*32+16)(SB)/8, v; \
	DATA sigmoiddata<>+(row*32+24)(SB)/8, v

SIGROW(0, $0x8000000000000000)
SIGROW(1, $-708.0)
SIGROW(2, $1.4426950408889634073599246810018920)
SIGROW(3, $0.69314718055966295651160180568695068359375)
SIGROW(4, $0.28235290563031577122588448175013436025525412068e-12)
SIGROW(5, $0.0625)
SIGROW(6, $2.4801587301587301587e-5)
SIGROW(7, $1.9841269841269841270e-4)
SIGROW(8, $1.3888888888888888889e-3)
SIGROW(9, $8.3333333333333333333e-3)
SIGROW(10, $4.1666666666666666667e-2)
SIGROW(11, $1.6666666666666666667e-1)
SIGROW(12, $0.5)
SIGROW(13, $1.0)
SIGROW(14, $2.0)
SIGROW(15, $0x3FF)
GLOBL sigmoiddata<>(SB), RODATA|NOPTR, $512

#define SIGSIGN sigmoiddata<>+0(SB)
#define SIGMIN sigmoiddata<>+32(SB)
#define SIGLOG2E sigmoiddata<>+64(SB)
#define SIGLN2U sigmoiddata<>+96(SB)
#define SIGLN2L sigmoiddata<>+128(SB)
#define SIGSIXTEENTH sigmoiddata<>+160(SB)
#define SIGC8 sigmoiddata<>+192(SB)
#define SIGC7 sigmoiddata<>+224(SB)
#define SIGC6 sigmoiddata<>+256(SB)
#define SIGC5 sigmoiddata<>+288(SB)
#define SIGC4 sigmoiddata<>+320(SB)
#define SIGC3 sigmoiddata<>+352(SB)
#define SIGHALF sigmoiddata<>+384(SB)
#define SIGONE sigmoiddata<>+416(SB)
#define SIGTWO sigmoiddata<>+448(SB)
#define SIGBIAS sigmoiddata<>+480(SB)

// func sigmoidAVX2(z []float64) (done int)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ   z_base+0(FP), DI
	MOVQ   z_len+8(FP), CX
	XORQ   AX, AX
	ANDQ   $-4, CX
	JZ     sigmoiddone
	VXORPD Y15, Y15, Y15

sigmoidloop:
	VMOVUPD      (DI)(AX*8), Y0         // z
	VORPD        SIGSIGN, Y0, Y1        // x = −|z|
	VCMPPD       $0x19, SIGMIN, Y1, Y2  // NGE_UQ: x < −708 or NaN
	VMOVMSKPD    Y2, BX
	TESTL        BX, BX
	JNZ          sigmoiddone
	VMULPD       SIGLOG2E, Y1, Y2
	VCVTPD2DQY   Y2, X2                 // k = x·LOG2E rounded to nearest
	VCVTDQ2PD    X2, Y3                 // float64(k)
	VFNMADD231PD SIGLN2U, Y3, Y1        // x − k·LN2U, one rounding
	VFNMADD231PD SIGLN2L, Y3, Y1        // − k·LN2L
	VMULPD       SIGSIXTEENTH, Y1, Y1   // r = (x − k·ln2)/16
	VMOVUPD      SIGC8, Y4
	VFMADD213PD  SIGC7, Y1, Y4          // Y4 = Y4·r + c, Horner
	VFMADD213PD  SIGC6, Y1, Y4
	VFMADD213PD  SIGC5, Y1, Y4
	VFMADD213PD  SIGC4, Y1, Y4
	VFMADD213PD  SIGC3, Y1, Y4
	VFMADD213PD  SIGHALF, Y1, Y4
	VFMADD213PD  SIGONE, Y1, Y4
	VMULPD       Y4, Y1, Y1             // y = r·poly = e^r − 1
	VADDPD       SIGTWO, Y1, Y4         // y = y·(y + 2), four times:
	VMULPD       Y4, Y1, Y1             // (e^(2r) − 1), …, (e^(16r) − 1)
	VADDPD       SIGTWO, Y1, Y4
	VMULPD       Y4, Y1, Y1
	VADDPD       SIGTWO, Y1, Y4
	VMULPD       Y4, Y1, Y1
	VADDPD       SIGTWO, Y1, Y4
	VFMADD213PD  SIGONE, Y4, Y1         // the last one fused with the + 1
	VPMOVSXDQ    X2, Y5
	VPADDQ       SIGBIAS, Y5, Y5
	VPSLLQ       $52, Y5, Y5            // 2^k
	VMULPD       Y5, Y1, Y1             // e = e^x
	VADDPD       SIGONE, Y1, Y6         // 1 + e
	VCMPPD       $0x1D, Y15, Y0, Y7     // GE_OQ: z ≥ 0
	VBLENDVPD    Y7, SIGONE, Y1, Y1     // 1 where z ≥ 0, e elsewhere
	VDIVPD       Y6, Y1, Y1
	VMOVUPD      Y1, (DI)(AX*8)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          sigmoidloop

sigmoiddone:
	MOVQ       AX, done+24(FP)
	VZEROUPPER
	RET
