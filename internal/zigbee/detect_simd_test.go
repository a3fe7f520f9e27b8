package zigbee

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// detectResult is everything detect answers for one scan.
type detectResult struct {
	start int
	gain  complex128
	q     float64
}

// detectBoth runs the scan with the asm kernels forced off, then on
// (a second scalar run on builds without them), restoring the ambient
// dispatch state.
func detectBoth(cap *signal.Signal, from int) (goRes, simdRes detectResult) {
	prev := simd.Enabled()
	defer simd.SetEnabled(prev)
	rx := NewReceiver()
	simd.SetEnabled(false)
	goRes.start, goRes.gain, goRes.q = rx.detect(cap, from)
	simd.SetEnabled(true)
	simdRes.start, simdRes.gain, simdRes.q = rx.detect(cap, from)
	return goRes, simdRes
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameDetect(a, b detectResult) bool {
	return a.start == b.start && sameFloat(a.q, b.q) &&
		sameFloat(real(a.gain), real(b.gain)) && sameFloat(imag(a.gain), imag(b.gain))
}

// frameCapture places a transmitted frame behind lead zero samples, adds
// noise of the given power and applies a carrier offset.
func frameCapture(t testing.TB, payload []byte, lead int, noise, cfo float64, seed int64) *signal.Signal {
	t.Helper()
	sig, err := NewTransmitter().Transmit(payload)
	if err != nil {
		t.Fatal(err)
	}
	cap := signal.New(SampleRate, lead+len(sig.Samples)+200)
	copy(cap.Samples[lead:], sig.Samples)
	if noise > 0 {
		cap.AddAWGN(noise, rand.New(rand.NewSource(seed)))
	}
	if cfo != 0 {
		cap.FrequencyShift(cfo)
	}
	return cap
}

// TestDetectDispatchBitIdentity pins the blocked SegCorr scan to the
// scalar scan on the shapes where the two could part: no power at all,
// captures one offset short of a block and exactly one block long, an
// early exit inside a block, a start offset off the block grid, and
// non-finite samples.
func TestDetectDispatchBitIdentity(t *testing.T) {
	tplLen := len(preambleTemplate)
	noise := func(n int, seed int64) *signal.Signal {
		cap := signal.New(SampleRate, n)
		cap.AddAWGN(0.5, rand.New(rand.NewSource(seed)))
		return cap
	}
	withInf := frameCapture(t, []byte("inf"), 300, 1e-4, 0, 3)
	withInf.Samples[17] = complex(math.Inf(1), 0)
	withInf.Samples[250] = complex(0, math.Inf(-1))
	withInf.Samples[301] = complex(math.Inf(1), math.Inf(1))
	withNaN := frameCapture(t, []byte("nan"), 64, 0, 0, 0)
	withNaN.Samples[40] = complex(math.NaN(), 0)
	zeroLead := frameCapture(t, []byte("zero lead-in"), 500, 0, 0, 0)

	type detectCase struct {
		name string
		cap  *signal.Signal
		from int
	}
	cases := []detectCase{
		{"all-zero", signal.New(SampleRate, tplLen+40), 0},
		{"one block exactly", noise(tplLen+7, 1), 0},
		{"one offset short of a block", noise(tplLen+6, 2), 0},
		{"block plus tail", noise(tplLen+8+5, 3), 0},
		{"frame, from off the grid", frameCapture(t, []byte("frame"), 400, 1e-3, 0, 5), 3},
		{"noise, from off the grid", noise(tplLen+40, 6), 5},
		{"from past the last offset", noise(tplLen+10, 7), 11},
		{"zero lead-in", zeroLead, 0},
		{"Inf samples", withInf, 0},
		{"NaN sample", withNaN, 1},
		{"CFO", frameCapture(t, []byte("cfo"), 123, 1e-2, 18e3, 8), 0},
	}
	// The scan stops one symbol past the final best offset; these
	// lead-ins put that exit offset at different places in its block, at
	// least one of them not the block's last.
	midBlock := false
	for _, lead := range []int{400, 401, 405} {
		cap := frameCapture(t, []byte("early exit"), lead, 1e-4, 0, int64(lead))
		start, _, q := NewReceiver().detect(cap, 0)
		exit := start + SymbolSamples + 1
		if q <= 0.4 || exit+tplLen > len(cap.Samples) {
			t.Fatalf("lead-in %d: no early exit (start %d, q %v)", lead, start, q)
		}
		midBlock = midBlock || exit%8 != 7
		cases = append(cases, detectCase{fmt.Sprintf("early exit at %d", exit), cap, 0})
	}
	if !midBlock {
		t.Fatal("no row exits the scan inside a block")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goRes, simdRes := detectBoth(tc.cap, tc.from)
			if !sameDetect(goRes, simdRes) {
				t.Fatalf("go %+v, simd %+v", goRes, simdRes)
			}
		})
	}
}

// TestDetectDispatchRandomCaptures sweeps lead-in, SNR, carrier offset
// and start offset over random frames: start, quality bits and gain must
// match the scalar scan on every capture.
func TestDetectDispatchRandomCaptures(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 40
	if testing.Short() {
		n = 8
	}
	for k := 0; k < n; k++ {
		payload := make([]byte, 1+rng.Intn(30))
		rng.Read(payload)
		lead := rng.Intn(901)
		snrDB := -10 + 30*rng.Float64()
		cfo := (2*rng.Float64() - 1) * 20e3
		cap := frameCapture(t, payload, lead, math.Pow(10, -snrDB/10), cfo, rng.Int63())
		from := rng.Intn(lead + 1)
		goRes, simdRes := detectBoth(cap, from)
		if !sameDetect(goRes, simdRes) {
			t.Fatalf("capture %d (lead %d, snr %.1f dB, cfo %.0f Hz, from %d): go %+v, simd %+v",
				k, lead, snrDB, cfo, from, goRes, simdRes)
		}
	}
}
