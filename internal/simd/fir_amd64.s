//go:build !noasm

#include "textflag.h"

// func firBlocks(dst *complex128, x *complex128, h *float64, nh int, blocks int)
//
// Gather-form FIR over complex samples with real taps, bit-identical to
// the scalar loop in signal.ConvolveInto. Each block writes 8 outputs
// (4 ymm accumulators of 2 complex128 each):
//
//   dst[n] = Σ_{t=0}^{nh-1} x[n+t]·complex(h[nh-1-t], 0)
//
// summed in ascending t from a +0 accumulator. Each term is Go's own
// complex-multiply lowering of x·complex(h, 0):
//
//   p = [xr·h, xi·h]             (VMULPD by the broadcast tap)
//   q = [xi·0, xr·0]             (VPERMILPD $5, VMULPD by +0)
//   term = [p0 − q0, p1 + q1]    (VADDSUBPD)
//   acc += term                  (VADDPD)
//
// with no FMA and no reassociation, so every non-NaN result matches the
// scalar bit for bit (Inf·0 = NaN included; NaN payloads are outside
// the contract, see the package fuzzer).
TEXT ·firBlocks(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DX
	MOVQ nh+24(FP), CX
	MOVQ blocks+32(FP), BX

	VXORPD Y15, Y15, Y15         // +0: the imaginary tap
	LEAQ   -8(DX)(CX*8), R8      // &h[nh-1]

block:
	VXORPD Y0, Y0, Y0            // accumulators start at +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9                // x cursor walks up
	MOVQ   R8, R10               // tap cursor walks down
	MOVQ   CX, R11

tap:
	VBROADCASTSD (R10), Y14
	VMOVUPD   (R9), Y4
	VMOVUPD   32(R9), Y6
	VMOVUPD   64(R9), Y8
	VMOVUPD   96(R9), Y10
	VMULPD    Y14, Y4, Y5        // p
	VMULPD    Y14, Y6, Y7
	VMULPD    Y14, Y8, Y9
	VMULPD    Y14, Y10, Y11
	VPERMILPD $5, Y4, Y4         // [xi, xr]
	VPERMILPD $5, Y6, Y6
	VPERMILPD $5, Y8, Y8
	VPERMILPD $5, Y10, Y10
	VMULPD    Y15, Y4, Y4        // q
	VMULPD    Y15, Y6, Y6
	VMULPD    Y15, Y8, Y8
	VMULPD    Y15, Y10, Y10
	VADDSUBPD Y4, Y5, Y5         // term
	VADDSUBPD Y6, Y7, Y7
	VADDSUBPD Y8, Y9, Y9
	VADDSUBPD Y10, Y11, Y11
	VADDPD    Y5, Y0, Y0         // acc += term
	VADDPD    Y7, Y1, Y1
	VADDPD    Y9, Y2, Y2
	VADDPD    Y11, Y3, Y3
	ADDQ      $16, R9
	SUBQ      $8, R10
	DECQ      R11
	JNZ       tap

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	DECQ    BX
	JNZ     block

	VZEROUPPER
	RET
