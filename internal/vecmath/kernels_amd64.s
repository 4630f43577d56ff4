// SSE2 bodies of the four hottest vecmath loops: DotBlocked2, Axpy4,
// sqDist4x2 and the sorting network's compare-exchange minMaxRows. Their Go
// wrappers check lengths and call in; the loops they replace are kept as
// dotBlocked2Generic, axpy4Generic, sqDist4x2Generic and minMaxRowsGeneric
// (the body on every other GOARCH, and the tests' oracle).
//
// Why the bits do not move in the arithmetic kernels. Each XMM lane holds
// exactly one of the Go loop's scalar accumulators (or, in axpy4, one
// independent coordinate), and a packed ADDPD / SUBPD / MULPD performs, per
// lane, the same IEEE 754 double operation with the same rounding as the
// ADDSD / SUBSD / MULSD the Go compiler emits for that accumulator. The
// kernels issue those lane operations in the Go loop's order, so every lane
// sees the scalar sequence of operations, operands and roundings:
//
//   - dotBlocked2: (p0,p1) (p2,p3) (q0,q1) (q2,q3) live in X0–X3; the
//     tail adds into lane 0 only (MULSD / ADDSD); the combine is
//     (p0+p1)+(p2+p3) as in Go.
//   - sqDist4x2: the tile of rows a0..a3 × points p, q. Lane map:
//       X0 = (a0·p, a1·p)   X1 = (a2·p, a3·p)
//       X2 = (a0·q, a1·q)   X3 = (a2·q, a3·q)
//     that is out[0..3] in X0–X1 and out[4..7] in X2–X3, the order of
//     sqDist4x2Generic's (s0..s3, t0..t3). Coordinate k is added before
//     k+1 in every lane, the difference is row − point, and the odd tail
//     coordinate is one more packed step of the same kind.
//   - axpy4: per coordinate d + (((a0·x0 + a1·x1) + a2·x2) + a3·x3), Go's
//     left-to-right evaluation of the expression.
//
// minMaxRows has a precondition instead: neither row holds a NaN or a −0.
// gatherTile checks exactly that before sortTileRows runs, and sends any
// tile that fails it to the per-column reference loop, so every call meets
// it. MINPD / MAXPD (and MINSD / MAXSD for the odd tail) return, per lane,
// the smaller / larger operand, and the second operand where the two
// compare equal or either is NaN; Go's min / max order −0 below +0 and
// propagate NaN. Without NaN and −0, x == y holds only for equal bits, so
// which operand an equal pair returns does not matter and each lane's
// result has the bits of min(a[k], b[k]) / max(a[k], b[k]). ±Inf and
// subnormals compare as ordinary values in both.
//
// Only SSE2 is used: it is the amd64 baseline (GOAMD64=v1), so there is no
// feature detection, and without FMA or AVX no step fuses or changes
// rounding on any CPU. MXCSR is left at Go's default (round to nearest,
// no flush-to-zero), so subnormals behave as in the scalar code. Which
// payload a NaN result carries is not part of the contract (the Go
// compiler is free to swap a commutative operation's operands); that a
// result is NaN is. Packed memory operands must be 16-byte aligned, and
// slices need not be, so every vector load is a MOVUPD into a register.

#include "textflag.h"

// func dotBlocked2Loop(a, b0, b1 []float64) (p, q float64)
TEXT ·dotBlocked2Loop(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	XORPS X0, X0 // (p0, p1)
	XORPS X1, X1 // (p2, p3)
	XORPS X2, X2 // (q0, q1)
	XORPS X3, X3 // (q2, q3)
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-4, BX
	JZ    dot2tail

dot2loop:
	MOVUPD (SI)(AX*8), X4   // a[i], a[i+1]
	MOVUPD 16(SI)(AX*8), X5 // a[i+2], a[i+3]
	MOVUPD (R8)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MOVUPD (R9)(AX*8), X8
	MOVUPD 16(R9)(AX*8), X9
	MULPD  X4, X6
	MULPD  X5, X7
	MULPD  X4, X8
	MULPD  X5, X9
	ADDPD  X6, X0
	ADDPD  X7, X1
	ADDPD  X8, X2
	ADDPD  X9, X3
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    dot2loop

dot2tail:
	CMPQ  AX, CX
	JGE   dot2combine
	MOVSD (SI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MOVSD (R9)(AX*8), X8
	MULSD X4, X6
	MULSD X4, X8
	ADDSD X6, X0
	ADDSD X8, X2
	INCQ  AX
	JMP   dot2tail

dot2combine:
	MOVAPS   X0, X4
	UNPCKHPD X4, X4 // p1
	ADDSD    X4, X0 // p0 + p1
	MOVAPS   X1, X5
	UNPCKHPD X5, X5 // p3
	ADDSD    X5, X1 // p2 + p3
	ADDSD    X1, X0
	MOVAPS   X2, X6
	UNPCKHPD X6, X6
	ADDSD    X6, X2
	MOVAPS   X3, X7
	UNPCKHPD X7, X7
	ADDSD    X7, X3
	ADDSD    X3, X2
	MOVSD    X0, p+72(FP)
	MOVSD    X2, q+80(FP)
	RET

// func sqDist4x2Loop(out *[8]float64, a0, a1, a2, a3, p, q []float64)
TEXT ·sqDist4x2Loop(SB), NOSPLIT, $0-152
	MOVQ  out+0(FP), DI
	MOVQ  a0_base+8(FP), R8
	MOVQ  a1_base+32(FP), R9
	MOVQ  a2_base+56(FP), R10
	MOVQ  a3_base+80(FP), R11
	MOVQ  p_base+104(FP), SI
	MOVQ  p_len+112(FP), CX
	MOVQ  q_base+128(FP), DX
	XORPS X0, X0 // (a0·p, a1·p)
	XORPS X1, X1 // (a2·p, a3·p)
	XORPS X2, X2 // (a0·q, a1·q)
	XORPS X3, X3 // (a2·q, a3·q)
	XORQ  AX, AX
	MOVQ  CX, BX
	ANDQ  $-2, BX
	JZ    sq4x2tail

sq4x2loop:
	MOVUPD   (R8)(AX*8), X4  // a0[k], a0[k+1]
	MOVUPD   (R9)(AX*8), X5  // a1[k], a1[k+1]
	MOVUPD   (R10)(AX*8), X6 // a2[k], a2[k+1]
	MOVUPD   (R11)(AX*8), X7 // a3[k], a3[k+1]
	MOVAPS   X4, X8
	UNPCKLPD X5, X4          // a0[k], a1[k]
	UNPCKHPD X5, X8          // a0[k+1], a1[k+1]
	MOVAPS   X6, X9
	UNPCKLPD X7, X6          // a2[k], a3[k]
	UNPCKHPD X7, X9          // a2[k+1], a3[k+1]
	MOVUPD   (SI)(AX*8), X10 // p[k], p[k+1]
	MOVAPS   X10, X11
	UNPCKLPD X10, X10        // p[k], p[k]
	UNPCKHPD X11, X11        // p[k+1], p[k+1]
	MOVUPD   (DX)(AX*8), X12 // q[k], q[k+1]
	MOVAPS   X12, X13
	UNPCKLPD X12, X12        // q[k], q[k]
	UNPCKHPD X13, X13        // q[k+1], q[k+1]
	MOVAPS   X4, X5
	MOVAPS   X6, X7
	MOVAPS   X8, X14
	MOVAPS   X9, X15
	SUBPD    X10, X5         // row − p at k
	SUBPD    X10, X7
	SUBPD    X11, X14        // row − p at k+1
	SUBPD    X11, X15
	SUBPD    X12, X4         // row − q at k
	SUBPD    X12, X6
	SUBPD    X13, X8         // row − q at k+1
	SUBPD    X13, X9
	MULPD    X5, X5
	MULPD    X7, X7
	MULPD    X4, X4
	MULPD    X6, X6
	MULPD    X14, X14
	MULPD    X15, X15
	MULPD    X8, X8
	MULPD    X9, X9
	ADDPD    X5, X0          // coordinate k
	ADDPD    X7, X1
	ADDPD    X4, X2
	ADDPD    X6, X3
	ADDPD    X14, X0         // then k+1
	ADDPD    X15, X1
	ADDPD    X8, X2
	ADDPD    X9, X3
	ADDQ     $2, AX
	CMPQ     AX, BX
	JLT      sq4x2loop

sq4x2tail:
	CMPQ     AX, CX
	JGE      sq4x2done
	MOVSD    (R8)(AX*8), X4
	MOVHPD   (R9)(AX*8), X4  // a0[k], a1[k]
	MOVSD    (R10)(AX*8), X6
	MOVHPD   (R11)(AX*8), X6 // a2[k], a3[k]
	MOVSD    (SI)(AX*8), X10
	UNPCKLPD X10, X10        // p[k], p[k]
	MOVSD    (DX)(AX*8), X12
	UNPCKLPD X12, X12        // q[k], q[k]
	MOVAPS   X4, X5
	MOVAPS   X6, X7
	SUBPD    X10, X5
	SUBPD    X10, X7
	SUBPD    X12, X4
	SUBPD    X12, X6
	MULPD    X5, X5
	MULPD    X7, X7
	MULPD    X4, X4
	MULPD    X6, X6
	ADDPD    X5, X0
	ADDPD    X7, X1
	ADDPD    X4, X2
	ADDPD    X6, X3

sq4x2done:
	MOVUPD X0, (DI)   // out[0], out[1]
	MOVUPD X1, 16(DI) // out[2], out[3]
	MOVUPD X2, 32(DI) // out[4], out[5]
	MOVUPD X3, 48(DI) // out[6], out[7]
	RET

// func axpy4Loop(d []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64)
TEXT ·axpy4Loop(SB), NOSPLIT, $0-152
	MOVQ     d_base+0(FP), DI
	MOVQ     d_len+8(FP), CX
	MOVSD    a0+24(FP), X0
	MOVQ     x0_base+32(FP), R8
	MOVSD    a1+56(FP), X1
	MOVQ     x1_base+64(FP), R9
	MOVSD    a2+88(FP), X2
	MOVQ     x2_base+96(FP), R10
	MOVSD    a3+120(FP), X3
	MOVQ     x3_base+128(FP), R11
	UNPCKLPD X0, X0 // a0, a0
	UNPCKLPD X1, X1
	UNPCKLPD X2, X2
	UNPCKLPD X3, X3
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-2, BX
	JZ       axpy4tail

axpy4loop:
	MOVUPD (R8)(AX*8), X4
	MOVUPD (R9)(AX*8), X5
	MOVUPD (R10)(AX*8), X6
	MOVUPD (R11)(AX*8), X7
	MOVUPD (DI)(AX*8), X8
	MULPD  X0, X4
	MULPD  X1, X5
	MULPD  X2, X6
	MULPD  X3, X7
	ADDPD  X5, X4 // a0·x0 + a1·x1
	ADDPD  X6, X4 // + a2·x2
	ADDPD  X7, X4 // + a3·x3
	ADDPD  X4, X8 // d + …
	MOVUPD X8, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    axpy4loop

axpy4tail:
	CMPQ  AX, CX
	JGE   axpy4done
	MOVSD (R8)(AX*8), X4
	MOVSD (R9)(AX*8), X5
	MOVSD (R10)(AX*8), X6
	MOVSD (R11)(AX*8), X7
	MOVSD (DI)(AX*8), X8
	MULSD X0, X4
	MULSD X1, X5
	MULSD X2, X6
	MULSD X3, X7
	ADDSD X5, X4
	ADDSD X6, X4
	ADDSD X7, X4
	ADDSD X4, X8
	MOVSD X8, (DI)(AX*8)

axpy4done:
	RET

// func minMaxRowsLoop(a, b []float64)
TEXT ·minMaxRowsLoop(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   minmaxtail

minmaxloop:
	MOVUPD (SI)(AX*8), X0   // a[k], a[k+1]
	MOVUPD 16(SI)(AX*8), X1 // a[k+2], a[k+3]
	MOVUPD (DI)(AX*8), X2   // b[k], b[k+1]
	MOVUPD 16(DI)(AX*8), X3 // b[k+2], b[k+3]
	MOVAPS X0, X4
	MOVAPS X1, X5
	MINPD  X2, X0           // min(a, b)
	MINPD  X3, X1
	MAXPD  X4, X2           // max(b, a)
	MAXPD  X5, X3
	MOVUPD X0, (SI)(AX*8)
	MOVUPD X1, 16(SI)(AX*8)
	MOVUPD X2, (DI)(AX*8)
	MOVUPD X3, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    minmaxloop

minmaxtail:
	CMPQ   AX, CX
	JGE    minmaxdone
	MOVSD  (SI)(AX*8), X0
	MOVSD  (DI)(AX*8), X2
	MOVAPS X0, X4
	MINSD  X2, X0
	MAXSD  X4, X2
	MOVSD  X0, (SI)(AX*8)
	MOVSD  X2, (DI)(AX*8)
	INCQ   AX
	JMP    minmaxtail

minmaxdone:
	RET
