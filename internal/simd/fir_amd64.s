//go:build !noasm

#include "textflag.h"

// func firBlocks(dst *complex128, x *complex128, h *float64, nh int, n int)
//
// Gather-form FIR over complex samples with real taps, n outputs (a
// multiple of 8):
//
//   dst[k] = Σ_{t=0}^{nh-1} x[k+t]·h[nh-1-t]
//
// summed in ascending t from a +0 accumulator. Each term is the real-tap
// split [xr·h, xi·h] (one VMULPD by the broadcast tap, then VADDPD into
// the accumulator), with no FMA and no reassociation. For finite x this
// is bit-identical to Go's lowering of x·complex(h, 0) (DESIGN §8.3);
// the caller guards the finite case. Blocks of 16 outputs keep 8 ymm
// accumulators of 2 complex128 each; a remainder of 8 outputs takes one
// 4-accumulator block.
TEXT ·firBlocks(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DX
	MOVQ nh+24(FP), CX
	MOVQ n+32(FP), BX

	LEAQ -8(DX)(CX*8), R8        // &h[nh-1]
	MOVQ BX, R12
	SHRQ $4, R12                 // 16-output blocks
	JZ   rem8

block16:
	VXORPD Y0, Y0, Y0            // accumulators start at +0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R9                // x cursor walks up
	MOVQ   R8, R10               // tap cursor walks down
	MOVQ   CX, R11

tap16:
	VBROADCASTSD (R10), Y15
	VMULPD       (R9), Y15, Y8
	VMULPD       32(R9), Y15, Y9
	VMULPD       64(R9), Y15, Y10
	VMULPD       96(R9), Y15, Y11
	VADDPD       Y8, Y0, Y0
	VADDPD       Y9, Y1, Y1
	VADDPD       Y10, Y2, Y2
	VADDPD       Y11, Y3, Y3
	VMULPD       128(R9), Y15, Y12
	VMULPD       160(R9), Y15, Y13
	VMULPD       192(R9), Y15, Y14
	VMULPD       224(R9), Y15, Y8
	VADDPD       Y12, Y4, Y4
	VADDPD       Y13, Y5, Y5
	VADDPD       Y14, Y6, Y6
	VADDPD       Y8, Y7, Y7
	ADDQ         $16, R9
	SUBQ         $8, R10
	DECQ         R11
	JNZ          tap16

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	DECQ    R12
	JNZ     block16

rem8:
	TESTQ $8, BX
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R9
	MOVQ   R8, R10
	MOVQ   CX, R11

tap8:
	VBROADCASTSD (R10), Y15
	VMULPD       (R9), Y15, Y8
	VMULPD       32(R9), Y15, Y9
	VMULPD       64(R9), Y15, Y10
	VMULPD       96(R9), Y15, Y11
	VADDPD       Y8, Y0, Y0
	VADDPD       Y9, Y1, Y1
	VADDPD       Y10, Y2, Y2
	VADDPD       Y11, Y3, Y3
	ADDQ         $16, R9
	SUBQ         $8, R10
	DECQ         R11
	JNZ          tap8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)

done:
	VZEROUPPER
	RET
