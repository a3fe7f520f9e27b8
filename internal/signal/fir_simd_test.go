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

// FuzzFIRSIMD is the FIR half of `make fuzz-simd`: samples and taps are
// raw float64 bit patterns (NaN, ±Inf, −0 and subnormals all appear),
// nx spans 0, lengths below and around the tap count and interior
// lengths off the 8-output block, and tap counts run 1–200. Both
// dispatch modes must agree bit for bit on every non-NaN part.
func FuzzFIRSIMD(f *testing.F) {
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
