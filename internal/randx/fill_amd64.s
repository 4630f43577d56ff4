//go:build !purego

// The inner-rectangle loop of the bulk ziggurat fill (fillNormal in
// randx.go): the path that about 98.8 % of candidates take, in registers.
// The four xoshiro256++ words stay in R8–R11 across the whole vector, and
// each candidate is one serial xoshiro step, drawn in the order of
// fillNormalGeneric (the Go loop, the body on every other GOARCH and the
// tests' oracle). A candidate that leaves its strip's inner rectangle ends
// the loop: the state is written back and (k, x, i) returned, zigOuter
// finishes it in Go, and the loop is entered again at k, with a fresh
// candidate if the wedge rejected x.
//
// Why the bits do not move. Every step is the Go expression's own
// operation, once, with the same rounding:
//
//   - xoshiro256++ is integer arithmetic (ADDQ, ROLQ, SHLQ, XORQ), exact.
//   - The strip index u & 0xFF is MOVBQZX of u's low byte, and
//     int64(u) >> 11 is SARQ $11, an arithmetic shift as in Go.
//   - CVTSQ2SD converts that signed integer, which lies in [−2⁵², 2⁵²), to
//     a double. Every such integer has at most 53 significant bits, so the
//     conversion is exact, as Go's float64(int64) is (it emits the same
//     instruction). CVTSQ2SD writes only the low lane of its register and
//     keeps the rest, so it would wait on the register's last writer; the
//     XORPS in front zeroes the register, which breaks that dependency and
//     does not touch the converted value.
//   - The factor 1/2⁵² is a power of two and the integer is 0 or at least
//     1 in magnitude, so that product is exact: no rounding, no subnormal.
//     The product with zigX[i] is one MULSD, Go's one rounding.
//   - |x| is ANDPD with the sign bit cleared, math.Abs's bits, and UCOMISD
//     compares it with zigX[i+1] exactly (x is never NaN): the carry flag
//     is set where |x| < zigX[i+1].
//   - sigma·z is one MULSD and v[k] + sigma·z one more ADDSD. There is no
//     FMA: a fused multiply-add rounds once where Go, which never fuses on
//     amd64, rounds twice. Both operations are commutative in IEEE 754, so
//     operand order does not change a bit (a NaN's payload aside, which is
//     not part of the contract; z is never NaN).
//
// The loop uses SSE2 only, part of every amd64 CPU, so it needs no probe.
// MXCSR is left at Go's default (round to nearest, no flush-to-zero).

#include "textflag.h"

// func fillNormalRect(s *[4]uint64, dst, v []float64, sigma float64, k int) (next int, x float64, i int)
TEXT ·fillNormalRect(SB), NOSPLIT, $0-96
	MOVQ  s+0(FP), DX
	MOVQ  0(DX), R8              // s0
	MOVQ  8(DX), R9              // s1
	MOVQ  16(DX), R10            // s2
	MOVQ  24(DX), R11            // s3
	MOVQ  dst_base+8(FP), DI
	MOVQ  dst_len+16(FP), CX
	MOVQ  v_base+32(FP), SI      // 0 when v is nil
	MOVSD sigma+56(FP), X0
	MOVQ  k+64(FP), AX
	LEAQ  ·zigX(SB), BX
	MOVQ  $0x7fffffffffffffff, DX
	MOVQ  DX, X1                 // the sign-clearing mask of |x|
	MOVQ  $0x3cb0000000000000, DX
	MOVQ  DX, X2                 // 1/2⁵²
	CMPQ  AX, CX
	JGE   full

candidate:
	// u = rotl(s0+s3, 23) + s0, then the state update of xoshiro.
	MOVQ R8, DX
	ADDQ R11, DX
	ROLQ $23, DX
	ADDQ R8, DX    // u
	MOVQ R9, R12
	SHLQ $17, R12  // t = s1 << 17
	XORQ R8, R10   // s2 ^= s0
	XORQ R9, R11   // s3 ^= s1
	XORQ R10, R9   // s1 ^= s2
	XORQ R11, R8   // s0 ^= s3
	XORQ R12, R10  // s2 ^= t
	ROLQ $45, R11  // s3 = rotl(s3, 45)

	// x = float64(int64(u)>>11) * (1/2⁵²) * zigX[i], i = u & 0xFF.
	MOVBQZX  DL, R13
	SARQ     $11, DX
	XORPS    X3, X3
	CVTSQ2SD DX, X3
	MULSD    X2, X3
	MULSD    (BX)(R13*8), X3
	MOVAPS   X3, X4
	ANDPD    X1, X4             // |x|
	UCOMISD  8(BX)(R13*8), X4   // |x| < zigX[i+1]: CF set
	JCC      outer

	MULSD X0, X3   // sigma·z
	TESTQ SI, SI
	JZ    store
	ADDSD (SI)(AX*8), X3 // v[k] + sigma·z

store:
	MOVSD X3, (DI)(AX*8)
	INCQ  AX
	CMPQ  AX, CX
	JLT   candidate

full:
	XORPS X3, X3
	XORQ  R13, R13

outer:
	MOVQ  s+0(FP), DX
	MOVQ  R8, 0(DX)
	MOVQ  R9, 8(DX)
	MOVQ  R10, 16(DX)
	MOVQ  R11, 24(DX)
	MOVQ  AX, next+72(FP)
	MOVSD X3, x+80(FP)
	MOVQ  R13, i+88(FP)
	RET
