//go:build !noasm

package simd

// hwDetect: NEON (AdvSIMD) is architecturally mandatory on AArch64, so
// the arm64 kernels need no feature probe.
func hwDetect() string { return "neon" }

// viterbiACS is the NEON ACS kernel (viterbi_arm64.s).
//
//go:noescape
func viterbiACS(metric *[64]int16, signs *[64]int32, q *int16, tb *uint64, steps int)

// fftPass is the NEON radix-2 butterfly pass (fft_arm64.s).
//
//go:noescape
func fftPass(x *complex128, n int, tw *complex128, size int)

// hasFIR: there is no NEON FIR kernel yet, so FIREnabled stays false and
// signal.Convolve keeps its pure-Go loop on arm64.
const hasFIR = false

func firBlocks(dst *complex128, x *complex128, h *float64, nh int, n int) {
	panic("simd: firBlocks has no arm64 kernel")
}

// hasSegCorr: there is no NEON segmented correlation yet, so
// SegCorrEnabled stays false and the ZigBee preamble scan keeps its
// pure-Go loop on arm64.
const hasSegCorr = false

func segCorr(acc *complex128, pow *float64, x *complex128, c *complex128, seg int, nseg int) {
	panic("simd: segCorr has no arm64 kernel")
}
