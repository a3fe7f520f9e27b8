// Package simd provides runtime-dispatched vector kernels for the four
// hottest inner loops in the decode chain: the int16 Viterbi
// add-compare-select step (wifi.ViterbiDecodeSoftQ), the radix-2
// complex FFT butterfly pass (signal.Plan), the gather-form FIR with
// real taps (signal.Convolve/ConvolveInto: the Bluetooth channel filter
// and Gaussian pulse shaping) and the segmented preamble correlation
// (the ZigBee receiver's detection scan). ViterbiACS and FFTPass have a
// Go assembly implementation per architecture (AVX2 on amd64, NEON on
// arm64); FIR and SegCorr are AVX2 only, so arm64 keeps the scalar
// filter and scan through FIREnabled and SegCorrEnabled. The callers
// keep their pure-Go loops as the always-available fallback.
//
// Exactness contract: every dispatched path is bit-identical to the
// pure-Go reference for every input, not just typical ones. FIR gets
// there with its caller: the kernel is exact on finite samples and
// signal.ConvolveInto sends any other capture to the scalar loop.
//
//   - ViterbiACS does its arithmetic in 32-bit lanes (sign-extended
//     from the int16 metrics) exactly like the Go kernel's plain-int
//     arithmetic, then truncates to int16 on store, so even
//     saturation-boundary metrics (±32767) wrap identically. Survivor
//     selection uses a strict greater-than against the low-predecessor
//     candidate, reproducing the scalar "higher predecessor wins only
//     when strictly better" tie order.
//
//   - FFTPass vectorizes across independent butterflies only; within a
//     butterfly the operation order is exactly the scalar
//     complex-multiply-then-add/sub sequence (re = br·wr − bi·wi,
//     im = br·wi + bi·wr; lo' = a+prod, hi' = a−prod), with no
//     reassociation, fused multiply-add, or extended precision, so
//     float results are bit-identical to the Go loop.
//
//   - FIR vectorizes across outputs only; each output sums its terms
//     in the scalar scatter loop's order (ascending input index, taps
//     walking down, from a +0 accumulator). Each term is the real-tap
//     split [xr·h, xi·h], which drops the multiplies by zero of Go's
//     lowering of x·complex(h, 0), [xr·h − xi·0, xi·h + xr·0]. For
//     finite x the two differ only in the sign of a zero term, which a
//     sum started at +0 cannot observe, so the kernel is exact for
//     finite samples; an Inf or NaN sample (Inf·0 = NaN) is the
//     caller's to route to the scalar loop (signal.ConvolveInto does).
//
//   - SegCorr vectorizes across scan offsets only; each offset's
//     segment accumulators and running power sum their terms in the
//     scalar scan's order (ascending sample, +0 at each segment start
//     for the accumulators, +0 once for the power, which carries across
//     segments). Each term is Go's lowering of x·c,
//     [xr·cr − xi·ci, xr·ci + xi·cr], and each power term xr·xr + xi·xi;
//     the kernel forms the imaginary part and the power with their two
//     products swapped, which IEEE addition makes exact.
//
// Dispatch is decided once at init from CPU features, can be disabled
// at build time with the `noasm` build tag, at process start with the
// FREERIDER_NOSIMD environment variable, and at runtime (tests, ops)
// with SetEnabled.
package simd

import (
	"os"
	"sync/atomic"
)

// NoSIMDEnv names the environment variable that, when set to any
// non-empty value, forces the pure-Go kernels without a rebuild. Ops
// escape hatch: if a machine misreports CPU features or an asm kernel
// is suspected, FREERIDER_NOSIMD=1 restores the reference path.
const NoSIMDEnv = "FREERIDER_NOSIMD"

// hwMode is the vector ISA this binary+CPU combination supports:
// "avx2", "neon", or "" when the build has no asm kernels (noasm tag,
// other GOARCH) or the CPU lacks the features. Fixed at init.
var hwMode = hwDetect()

// active gates dispatch. It starts true only when hwMode is non-empty
// and the env override is absent; SetEnabled flips it at runtime.
var active atomic.Bool

func init() {
	active.Store(hwMode != "" && os.Getenv(NoSIMDEnv) == "")
}

// Enabled reports whether the asm kernels are currently dispatched.
// When false, callers must use their pure-Go paths; calling the
// kernels below with Enabled()==false panics on noasm builds.
func Enabled() bool { return active.Load() }

// Mode names the dispatch path current callers get: "avx2", "neon",
// or "go". Benchmark tooling records this next to each trajectory
// point so perf history is attributable to a code path.
func Mode() string {
	if !active.Load() {
		return "go"
	}
	return hwMode
}

// HWMode names the ISA the binary could use regardless of the current
// Enabled state ("" when none). Lets tests distinguish "disabled by
// choice" from "nothing to enable".
func HWMode() string { return hwMode }

// SetEnabled turns asm dispatch on or off at runtime and returns the
// previous state. Enabling is a no-op (returns the unchanged state)
// when the binary or CPU has no asm kernels. Used by the differential
// tests to force both paths in one process.
func SetEnabled(on bool) bool {
	prev := active.Load()
	if on && hwMode == "" {
		return prev
	}
	active.Store(on)
	return prev
}

// ViterbiACS runs len(tb) add-compare-select trellis steps over the 64
// de Bruijn states of the K=7 802.11 code. metric holds the int16 path
// metrics on entry and the updated metrics on return. signs is the
// per-butterfly branch-gain sign table: signs[k] is the first-symbol
// sign (±1) for butterfly k (states 2k/2k+1 → k), signs[32+k] the
// second-symbol sign. q holds the quantized symbol pairs, 2 per step.
// tb[t] receives the 64 survivor-selection bits for step t (bit s set
// ⇔ new state s chose the higher predecessor).
//
// Callers must check Enabled() first; no renormalization happens
// inside, so steps must not cross a renorm boundary.
func ViterbiACS(metric *[64]int16, signs *[64]int32, q []int16, tb []uint64) {
	steps := len(tb)
	if steps == 0 {
		return
	}
	if len(q) < 2*steps {
		panic("simd: ViterbiACS needs 2 symbols per step")
	}
	viterbiACS(metric, signs, &q[0], &tb[0], steps)
}

// FFTPass applies one radix-2 DIT stage to x in place: for every block
// of `size` elements, butterflies pair element k with element
// k+size/2 using twiddle tw[k]. len(tw) must be size/2 and len(x) a
// multiple of size. Operation order per butterfly matches the scalar
// loop exactly (see package comment). Callers must check Enabled().
func FFTPass(x []complex128, tw []complex128, size int) {
	if size < 2 || size&(size-1) != 0 {
		panic("simd: FFTPass size must be a power of two >= 2")
	}
	if len(tw) != size/2 || len(x)%size != 0 {
		panic("simd: FFTPass twiddle/input length mismatch")
	}
	if len(x) == 0 {
		return
	}
	fftPass(&x[0], len(x), &tw[0], size)
}

// FIREnabled reports whether FIR is currently dispatched: asm dispatch
// is on and this architecture has the kernel (amd64 only).
func FIREnabled() bool { return hasFIR && active.Load() }

// FIR computes len(dst) outputs of a real-tap filter in gather form:
//
//	dst[n] = Σ_{t=0}^{len(h)-1} x[n+t]·h[len(h)-1-t]
//
// with the terms summed in ascending t from +0, 16 outputs per block
// and one 8-output block for the remainder. Every output is
// bit-identical to the same sum over x[n+t]·complex(h, 0) when x holds
// no Inf or NaN (see the package comment); callers must keep
// non-finite samples off this path. len(dst) must be a multiple of 8
// and len(x) at least len(dst)+len(h)-1; dst must not overlap x.
// Callers must check FIREnabled().
func FIR(dst, x []complex128, h []float64) {
	if len(dst)%8 != 0 {
		panic("simd: FIR output length must be a multiple of 8")
	}
	if len(dst) == 0 {
		return
	}
	if len(h) == 0 || len(x) < len(dst)+len(h)-1 {
		panic("simd: FIR input shorter than outputs plus taps")
	}
	firBlocks(&dst[0], &x[0], &h[0], len(h), len(dst))
}

// SegCorrEnabled reports whether SegCorr is currently dispatched: asm
// dispatch is on and this architecture has the kernel (amd64 only).
func SegCorrEnabled() bool { return hasSegCorr && active.Load() }

// SegCorr correlates 8 consecutive scan offsets of x against the
// template c split into nseg equal segments of seg = len(c)/nseg
// samples. For offset k in 0..7 and segment s it writes
//
//	acc[8s+k] = Σ_{j<seg} x[k+s·seg+j]·c[s·seg+j]
//	pow[k]    = Σ_{t<len(c)} real(x[k+t])² + imag(x[k+t])²
//
// summed in ascending sample order, each accumulator from +0 and the
// power from +0 carried across segments (see the package comment for
// the exact lowering). len(c) must be a positive multiple of nseg,
// len(acc) must be 8·nseg and len(x) at least len(c)+7. Callers must
// check SegCorrEnabled().
func SegCorr(acc []complex128, pow *[8]float64, x, c []complex128, nseg int) {
	if nseg <= 0 || len(c) == 0 || len(c)%nseg != 0 {
		panic("simd: SegCorr template must split into nseg equal segments")
	}
	if len(acc) != 8*nseg {
		panic("simd: SegCorr needs 8 accumulators per segment")
	}
	if len(x) < len(c)+7 {
		panic("simd: SegCorr input shorter than template plus 7 offsets")
	}
	segCorr(&acc[0], &pow[0], &x[0], &c[0], len(c)/nseg, nseg)
}
