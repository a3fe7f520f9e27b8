package signal

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/simd"
)

// LowpassFIR designs a windowed-sinc (Hamming) lowpass FIR filter with the
// given cutoff frequency in Hz at the given sample rate, with taps
// coefficients (odd tap count recommended for a symmetric filter).
func LowpassFIR(rate, cutoff float64, taps int) ([]float64, error) {
	if taps < 3 {
		return nil, fmt.Errorf("signal: need at least 3 taps, got %d", taps)
	}
	if cutoff <= 0 || cutoff >= rate/2 {
		return nil, fmt.Errorf("signal: cutoff %g Hz outside (0, %g)", cutoff, rate/2)
	}
	fc := cutoff / rate // normalised cutoff (cycles/sample)
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	var sum float64
	for i := range h {
		t := float64(i) - mid
		var v float64
		if t == 0 {
			v = 2 * fc
		} else {
			v = math.Sin(2*math.Pi*fc*t) / (math.Pi * t)
		}
		// Hamming window.
		v *= 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(taps-1))
		h[i] = v
		sum += v
	}
	for i := range h { // unity DC gain
		h[i] /= sum
	}
	return h, nil
}

// GaussianFIR returns the Gaussian pulse-shaping filter used by GFSK with
// bandwidth-time product bt, sampled at sps samples per symbol, spanning
// span symbols. Normalised to unity sum.
func GaussianFIR(bt float64, sps, span int) []float64 {
	n := sps*span + 1
	h := make([]float64, n)
	// Standard GMSK Gaussian response: alpha = sqrt(ln2)/(2*pi*BT).
	alpha := math.Sqrt(math.Ln2) / (2 * math.Pi * bt)
	mid := float64(n-1) / 2
	var sum float64
	for i := range h {
		t := (float64(i) - mid) / float64(sps) // in symbol periods
		h[i] = math.Exp(-t * t / (2 * alpha * alpha))
		sum += h[i]
	}
	for i := range h {
		h[i] /= sum
	}
	return h
}

// Convolve filters x with real taps h ("same" alignment: output sample i
// corresponds to input sample i with the filter group delay removed).
func Convolve(x []complex128, h []float64) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	a := GetArena()
	defer a.Release()
	return ConvolveInto(make([]complex128, 0, len(x)), x, h, a)
}

// ConvolveInto is Convolve with caller-provided storage: the result is
// appended to dst[:0], which must not overlap x. The scalar path takes
// its full-length product from the arena; the SIMD path writes straight
// into dst. Either way a warm caller allocates nothing, and both paths
// give bit-identical output.
func ConvolveInto(dst, x []complex128, h []float64, a *Arena) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return dst[:0]
	}
	if simd.FIREnabled() {
		out := slices.Grow(dst[:0], len(x))[:len(x)]
		convolveGather(out, x, h)
		return out
	}
	full := a.Complex(len(x) + len(h) - 1)
	for i, xv := range x {
		row := full[i : i+len(h) : i+len(h)]
		for j, hv := range h {
			row[j] += xv * complex(hv, 0)
		}
	}
	delay := (len(h) - 1) / 2
	return append(dst[:0], full[delay:delay+len(x)]...)
}

// convolveGather is the SIMD form of the scatter loop above: each output
// gathers its own terms instead of receiving them from every input, so
// out needs no full-length scratch. Outputs whose tap window lies wholly
// inside x go through simd.FIR in blocks of eight; the two edges and the
// tail under eight take gatherAt. Both sum an output's terms in the
// scatter loop's order (ascending input index from +0). gatherAt uses
// the same complex multiply; simd.FIR uses the real-tap split, which
// equals it bit for bit only when x is finite, so a capture holding any
// Inf or NaN takes gatherAt for every output (DESIGN §8.3).
func convolveGather(out, x []complex128, h []float64) {
	nx, nh := len(x), len(h)
	delay := (nh - 1) / 2
	// out[m] is full-convolution index k = m+delay, whose window
	// x[k-nh+1..k] is whole for nh-1 <= k <= nx-1.
	lo := min(nh-1-delay, nx)
	hi := max(nx-delay, lo)
	n8 := (hi - lo) &^ 7
	if !finite(x) {
		lo, n8 = nx, 0 // every output through gatherAt
	}
	for m := 0; m < lo; m++ {
		out[m] = gatherAt(x, h, m+delay)
	}
	if n8 > 0 {
		simd.FIR(out[lo:lo+n8], x[lo+delay-(nh-1):], h)
	}
	for m := lo + n8; m < nx; m++ {
		out[m] = gatherAt(x, h, m+delay)
	}
}

// finite reports whether every component of x is finite: v−v is 0 for
// finite parts and NaN for ±Inf and NaN, and a NaN survives the sum.
func finite(x []complex128) bool {
	var s complex128
	for _, v := range x {
		s += v - v
	}
	return s == 0
}

// gatherAt is full-convolution output k summed in the scatter loop's
// order.
func gatherAt(x []complex128, h []float64, k int) complex128 {
	var acc complex128
	for i := max(0, k-len(h)+1); i <= min(k, len(x)-1); i++ {
		acc += x[i] * complex(h[k-i], 0)
	}
	return acc
}

// Filter applies h to the signal in place (same alignment) and returns it.
func (s *Signal) Filter(h []float64) *Signal {
	s.Samples = Convolve(s.Samples, h)
	return s
}

// Upsample inserts factor-1 zeros between samples and raises the rate. The
// caller normally follows with a lowpass interpolation filter.
func (s *Signal) Upsample(factor int) *Signal {
	if factor <= 1 {
		return s
	}
	out := make([]complex128, len(s.Samples)*factor)
	for i, v := range s.Samples {
		out[i*factor] = v * complex(float64(factor), 0)
	}
	s.Samples = out
	s.Rate *= float64(factor)
	return s
}

// Downsample keeps every factor-th sample and lowers the rate. The caller
// normally lowpass-filters first to avoid aliasing.
func (s *Signal) Downsample(factor int) *Signal {
	if factor <= 1 {
		return s
	}
	out := make([]complex128, 0, len(s.Samples)/factor+1)
	for i := 0; i < len(s.Samples); i += factor {
		out = append(out, s.Samples[i])
	}
	s.Samples = out
	s.Rate /= float64(factor)
	return s
}
