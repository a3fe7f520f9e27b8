package signal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// requireConvolveDispatchIdentity runs Convolve (and through it
// ConvolveInto) with dispatch off, the scatter loop, and on, the gather
// kernel where the architecture has one.
func requireConvolveDispatchIdentity(t *testing.T, x []complex128, h []float64) {
	t.Helper()
	withBothDispatchModes(t, func() []complex128 { return Convolve(x, h) }, func(goRes, simdRes []complex128) {
		requireSameBitsOrNaN(t, "Convolve", goRes, simdRes)
	})
}

// requireSameBitsOrNaN is the FIR exactness contract: the same outputs
// are NaN in both modes and every other part is bit-identical. NaN
// payloads are compared as a class (see FuzzFFTSIMD).
func requireSameBitsOrNaN(t *testing.T, label string, goRes, simdRes []complex128) {
	t.Helper()
	if len(goRes) != len(simdRes) {
		t.Fatalf("%s: length %d vs %d", label, len(goRes), len(simdRes))
	}
	for i := range goRes {
		for _, p := range [][2]float64{{real(goRes[i]), real(simdRes[i])}, {imag(goRes[i]), imag(simdRes[i])}} {
			gn, sn := math.IsNaN(p[0]), math.IsNaN(p[1])
			if gn != sn || !gn && math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("%s: sample %d differs: go %v simd %v", label, i, goRes[i], simdRes[i])
			}
		}
	}
}

// TestConvolveDispatchBitIdentity forces FIR dispatch off and on over
// the shapes the gather split has to get right: odd and even tap counts,
// interior lengths that are not a multiple of 8, and the two Bluetooth
// filters at their packet lengths. Empty, single-sample and
// shorter-than-filter inputs are the TestConvolveFFT* tests below.
func TestConvolveDispatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	btChannel, err := LowpassFIR(8e6, 500e3, 129)
	if err != nil {
		t.Fatal(err)
	}
	btGauss := GaussianFIR(0.5, 8, 3)
	cases := []struct {
		nx int
		h  []float64
	}{
		{7, randTaps(rng, 2)},
		{8, randTaps(rng, 1)},
		{37, randTaps(rng, 5)},
		{133, randTaps(rng, 128)},
		{141, randTaps(rng, 129)},
		{500, randTaps(rng, 33)},
		{1003, randTaps(rng, 64)},
		{17696, btChannel},
		{16896, btGauss},
	}
	for _, tc := range cases {
		requireConvolveDispatchIdentity(t, randComplex(rng, tc.nx), tc.h)
	}
}

func randTaps(rng *rand.Rand, n int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	return h
}

// convolveReference is the "same"-aligned convolution written out as
// the definition: output m sums x[i]·h[m+delay-i] over ascending i from
// +0, the order both Convolve paths promise, so it must match them bit
// for bit.
func convolveReference(x []complex128, h []float64) []complex128 {
	delay := (len(h) - 1) / 2
	out := make([]complex128, len(x))
	for m := range out {
		var acc complex128
		for i := range x {
			if j := m + delay - i; j >= 0 && j < len(h) {
				acc += x[i] * complex(h[j], 0)
			}
		}
		out[m] = acc
	}
	return out
}

// requireConvolveMatchesReference checks Convolve against
// convolveReference with dispatch off and on; where the build has no
// FIR kernel both runs take the scalar loop.
func requireConvolveMatchesReference(t *testing.T, x []complex128, h []float64) {
	t.Helper()
	want := convolveReference(x, h)
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	for _, on := range []bool{false, true} {
		simd.SetEnabled(on)
		requireBitIdentical(t, fmt.Sprintf("Convolve (simd %v)", simd.FIREnabled()), want, Convolve(x, h))
	}
}

// The TestConvolveFFT* names date from the overlap-save convolution
// that has since been removed; the cases they cover are edge shapes of
// the filtering path, which Convolve still has to get right.

func TestConvolveFFTEmptyInputs(t *testing.T) {
	if out := Convolve(nil, []float64{1}); out != nil {
		t.Fatalf("empty signal: got %v, want nil", out)
	}
	if out := Convolve([]complex128{1}, nil); out != nil {
		t.Fatalf("empty taps: got %v, want nil", out)
	}
	a := GetArena()
	defer a.Release()
	if out := ConvolveInto(nil, nil, []float64{1}, a); len(out) != 0 {
		t.Fatalf("Into with empty signal: got %v, want empty", out)
	}
	requireConvolveMatchesReference(t, nil, randTaps(rand.New(rand.NewSource(1)), 5))
}

func TestConvolveFFTSingleSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, taps := range []int{1, 3, 101} {
		requireConvolveMatchesReference(t, randComplex(rng, 1), randTaps(rng, taps))
	}
}

func TestConvolveFFTTapsLongerThanSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, taps int }{{1, 5}, {4, 101}, {50, 101}, {100, 129}} {
		requireConvolveMatchesReference(t, randComplex(rng, tc.n), randTaps(rng, tc.taps))
	}
}

// TestConvolveFFTDispatchBitIdentity runs a 33-tap filter over lengths
// that straddle the 8-output SIMD block and the filter length, checking
// both dispatch modes against the reference.
func TestConvolveFFTDispatchBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	taps := randTaps(rng, 33)
	for _, n := range []int{1, 17, 64, 127, 128, 129, 500, 1000} {
		requireConvolveMatchesReference(t, randComplex(rng, n), taps)
	}
}

// TestConvolveRealTapZeroSigns holds the real-tap kernel to the scatter
// loop on the inputs where its split [xr·h, xi·h] and Go's lowering
// [xr·h − xi·0, xi·h + xr·0] produce zeros of different sign. With 5
// taps and 31 samples the interior is one 16-output block, one 8-output
// block and a scalar tail. Rows whose samples are all ±0 must also come
// out +0 everywhere: the accumulator starts at +0 and never turns −0.
func TestConvolveRealTapZeroSigns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	const nx = 31
	fill := func(f func(i int) complex128) []complex128 {
		x := make([]complex128, nx)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	signedZero := func(i int) float64 {
		if i%2 == 1 {
			return negZero
		}
		return 0
	}
	rng := rand.New(rand.NewSource(15))
	base := randComplex(rng, nx)
	cases := []struct {
		name     string
		x        []complex128
		h        []float64
		allZeros bool
	}{
		{"−0 samples, +1 taps", fill(func(int) complex128 { return complex(negZero, negZero) }),
			[]float64{1, 1, 1, 1, 1}, true},
		{"−0 samples, −1 taps", fill(func(int) complex128 { return complex(negZero, negZero) }),
			[]float64{-1, -1, -1, -1, -1}, true},
		{"±0 samples, ±0 taps", fill(func(i int) complex128 { return complex(signedZero(i), signedZero(i/2)) }),
			[]float64{0, negZero, 0, negZero, negZero}, true},
		{"±0 samples, ±1 taps", fill(func(i int) complex128 { return complex(signedZero(i/3), signedZero(i)) }),
			[]float64{1, -1, -1, 1, -1}, true},
		{"−0 real parts, −1 taps", fill(func(i int) complex128 { return complex(negZero, imag(base[i])) }),
			[]float64{-1, -1, -1, -1, -1}, false},
		{"finite samples, ±0 taps", base, []float64{negZero, 0, negZero, negZero, 0}, false},
		{"cancelling neighbours", fill(func(i int) complex128 {
			if i%2 == 1 {
				return -base[i-1]
			}
			return base[i]
		}), []float64{1, 1, 0, 1, 1}, false},
	}
	for _, tc := range cases {
		want := convolveReference(tc.x, tc.h)
		withBothDispatchModes(t, func() []complex128 { return Convolve(tc.x, tc.h) }, func(goRes, simdRes []complex128) {
			requireBitIdentical(t, tc.name+" (scalar vs reference)", want, goRes)
			requireBitIdentical(t, tc.name+" (simd vs scalar)", goRes, simdRes)
			if !tc.allZeros {
				return
			}
			for i, v := range simdRes {
				if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
					t.Fatalf("%s: output %d is %v, want +0", tc.name, i, v)
				}
			}
		})
	}
}

// FuzzFIRSIMD is the FIR half of `make fuzz-simd`: samples and taps are
// raw float64 bit patterns (NaN, ±Inf, −0 and subnormals all appear),
// nx spans 0, lengths below and around the tap count and interior
// lengths off the 8-output block, and tap counts run 1–200. Both
// dispatch modes must agree bit for bit on every non-NaN part.
func FuzzFIRSIMD(f *testing.F) {
	// addShape seeds exact taps and samples: the fuzz body reads the
	// taps first, then each sample's real and imaginary part.
	addShape := func(h []float64, x []complex128) {
		raw := make([]byte, 0, 8*(len(h)+2*len(x)))
		for _, v := range h {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		for _, v := range x {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(real(v)))
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(imag(v)))
		}
		f.Add(raw, uint16(len(x)), uint8(len(h)-1))
	}
	rng := rand.New(rand.NewSource(14))
	blob := make([]byte, 16*64)
	for i := 0; i < len(blob); i += 8 {
		binary.LittleEndian.PutUint64(blob[i:], math.Float64bits(rng.NormFloat64()))
	}
	f.Add(blob, uint16(300), uint8(128))
	f.Add(blob, uint16(17), uint8(24))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, math.MaxFloat64}
	odd := make([]byte, 8*len(special))
	for i, v := range special {
		binary.LittleEndian.PutUint64(odd[8*i:], math.Float64bits(v))
	}
	f.Add(odd, uint16(41), uint8(6))
	f.Add(odd, uint16(3), uint8(9))
	// Finite taps over samples holding infinities: Inf·0 in the cross
	// terms must turn exactly the scalar's outputs NaN.
	inf := make([]byte, 8*(8+2*64))
	for i := 0; i < len(inf)/8; i++ {
		v := rng.NormFloat64()
		if i >= 8 && i%11 == 0 {
			v = math.Inf(1 - 2*(i%2))
		}
		binary.LittleEndian.PutUint64(inf[8*i:], math.Float64bits(v))
	}
	f.Add(inf, uint16(64), uint8(7))
	f.Add([]byte{}, uint16(0), uint8(0))
	// One non-finite sample in an otherwise finite capture, exactly where
	// a kernel block's window starts: 7 taps put output lo+j's window at
	// x[j], so 24, 40 and 48 interior outputs make x[16] and x[32] the
	// first sample of an 8-output block and x[32] that of a 16-output
	// block. The capture must take the scalar path for every output.
	taps7 := randTaps(rng, 7)
	for _, tc := range []struct {
		nx, at int
		v      complex128
	}{
		{6 + 24, 16, complex(math.Inf(1), 0.5)},
		{6 + 40, 32, complex(-0.5, math.Inf(-1))},
		{6 + 48, 32, complex(0.25, math.NaN())},
	} {
		x := randComplex(rng, tc.nx)
		x[tc.at] = tc.v
		addShape(taps7, x)
	}
	// Finite samples whose products overflow: ±MaxFloat64 parts (and some
	// zeros) under taps of magnitude above 1 give ±Inf terms and Inf−Inf
	// sums, identically in both forms.
	big := make([]complex128, 8+40)
	for i := range big {
		re, im := math.MaxFloat64, -math.MaxFloat64
		if i%3 == 0 {
			re = -re
		}
		if i%5 == 0 {
			im = 0
		}
		big[i] = complex(re, im)
	}
	addShape([]float64{1.5, -2, 3, -1.25, 4, 2, -3.5, 1.0625, -2.5}, big)
	// Signed zeros everywhere: every term is a zero whose sign the two
	// forms may disagree on, and every output must still match.
	zeros := make([]complex128, 4+24)
	for i := range zeros {
		zeros[i] = complex(math.Copysign(0, float64(i%2)-0.5), math.Copysign(0, float64(i%3)-1.5))
	}
	addShape([]float64{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0, 0}, zeros)

	f.Fuzz(func(t *testing.T, raw []byte, nx16 uint16, nh8 uint8) {
		nh := 1 + int(nh8)%200
		nx := int(nx16) % 600
		if len(raw) < 8 {
			raw = append(raw, make([]byte, 8)...)
		}
		// Values are read cyclically from raw so short inputs still
		// fill any shape.
		next := 0
		val := func() float64 {
			var b [8]byte
			for i := range b {
				b[i] = raw[next%len(raw)]
				next++
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		h := make([]float64, nh)
		for i := range h {
			h[i] = val()
		}
		x := make([]complex128, nx)
		for i := range x {
			x[i] = complex(val(), val())
		}
		requireConvolveDispatchIdentity(t, x, h)
	})
}
