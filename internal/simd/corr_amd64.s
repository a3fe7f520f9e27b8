//go:build !noasm

#include "textflag.h"

// func segCorr(acc *complex128, pow *float64, x *complex128, c *complex128, seg int, nseg int)
//
// Segmented correlation of 8 consecutive scan offsets, bit-identical to
// the scalar scan in zigbee.(*Receiver).detect. For offset k (0..7) and
// segment s:
//
//   acc[8s+k] = Σ_{j<seg} x[k+s·seg+j]·c[s·seg+j]    (from +0 per segment)
//   pow[k]    = Σ_{t<nseg·seg} |x[k+t]|²             (from +0, carried)
//
// One ymm holds two adjacent offsets' [accR, accI], which are also two
// adjacent samples in memory, so 4 accumulators cover 8 offsets with
// plain loads. Each term is Go's lowering of x·c:
//
//   p = [xr·cr, xi·cr]            (VMULPD by the broadcast cr)
//   q = [xi·ci, xr·ci]            (VPERMILPD $5, VMULPD by the broadcast ci)
//   term = [p0 − q0, p1 + q1]     (VADDSUBPD; xi·cr + xr·ci commutes exactly)
//   acc += term                   (VADDPD)
//
// and each power term is [xi², xr²] summed by VHADDPD (again an exact
// commutation of xr·xr + xi·xi) and added to the running sum. No FMA and
// no reassociation.
TEXT ·segCorr(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ pow+8(FP), R8
	MOVQ x+16(FP), SI
	MOVQ c+24(FP), DX
	MOVQ seg+32(FP), CX
	MOVQ nseg+40(FP), BX

	VXORPD Y4, Y4, Y4            // power of offsets 0-3, lanes [0, 2, 1, 3]
	VXORPD Y5, Y5, Y5            // power of offsets 4-7, lanes [4, 6, 5, 7]

segment:
	VXORPD Y0, Y0, Y0            // accumulators start at +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   CX, R11

sample:
	VBROADCASTSD (DX), Y14       // cr
	VBROADCASTSD 8(DX), Y15      // ci

	VMOVUPD   (SI), Y6           // offsets 0, 1
	VMOVUPD   32(SI), Y7         // offsets 2, 3
	VMULPD    Y14, Y6, Y8        // p
	VMULPD    Y14, Y7, Y9
	VPERMILPD $5, Y6, Y6         // [xi, xr]
	VPERMILPD $5, Y7, Y7
	VMULPD    Y6, Y6, Y10        // [xi², xr²]
	VMULPD    Y7, Y7, Y11
	VMULPD    Y15, Y6, Y6        // q
	VMULPD    Y15, Y7, Y7
	VADDSUBPD Y6, Y8, Y8         // term
	VADDSUBPD Y7, Y9, Y9
	VADDPD    Y8, Y0, Y0         // acc += term
	VADDPD    Y9, Y1, Y1
	VHADDPD   Y11, Y10, Y10      // [|x0|², |x2|², |x1|², |x3|²]
	VADDPD    Y10, Y4, Y4

	VMOVUPD   64(SI), Y6         // offsets 4, 5
	VMOVUPD   96(SI), Y7         // offsets 6, 7
	VMULPD    Y14, Y6, Y8
	VMULPD    Y14, Y7, Y9
	VPERMILPD $5, Y6, Y6
	VPERMILPD $5, Y7, Y7
	VMULPD    Y6, Y6, Y10
	VMULPD    Y7, Y7, Y11
	VMULPD    Y15, Y6, Y6
	VMULPD    Y15, Y7, Y7
	VADDSUBPD Y6, Y8, Y8
	VADDSUBPD Y7, Y9, Y9
	VADDPD    Y8, Y2, Y2
	VADDPD    Y9, Y3, Y3
	VHADDPD   Y11, Y10, Y10
	VADDPD    Y10, Y5, Y5

	ADDQ $16, SI
	ADDQ $16, DX
	DECQ R11
	JNZ  sample

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	DECQ    BX
	JNZ     segment

	VPERMPD $0xd8, Y4, Y4        // lanes [0, 2, 1, 3] → [0, 1, 2, 3]
	VPERMPD $0xd8, Y5, Y5
	VMOVUPD Y4, (R8)
	VMOVUPD Y5, 32(R8)
	VZEROUPPER
	RET
