package bluetooth

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// demodOutputs is everything a Demodulated pass answers for one query.
type demodOutputs struct {
	start  int
	q      float64
	bits   []byte
	powers []float64
}

func demodAll(cap *signal.Signal, at, nBits int) demodOutputs {
	rx := NewReceiver()
	rx.CollectPower = true
	d := rx.Demod(cap)
	var o demodOutputs
	o.start, o.q = d.Detect()
	if o.start >= 0 {
		at = o.start
	}
	o.bits = d.RawBitsAt(at, nBits)
	o.powers = d.BitPowers(at, nBits)
	return o
}

func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzBluetoothDemod drives arbitrary captures (raw float64 bits, so NaN,
// ±Inf, −0 and subnormals appear; empty, single-sample and shorter than
// the 129-tap channel filter included) through Receiver.Demod and every
// query on the pass, under both SIMD dispatch states. With overFrame set
// the raw samples overwrite part of a real transmitted frame instead, so
// detection and bit slicing see a sync they can lock to while the corpus
// stays small. Nothing may panic, and both states must answer
// identically, NaN compared as a class.
func FuzzBluetoothDemod(f *testing.F) {
	sig, err := NewTransmitter().Transmit([]byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	frame := append(make([]complex128, 32), sig.Samples...)
	f.Add([]byte{}, true, int16(0), uint8(80))
	f.Add([]byte{}, false, int16(0), uint8(8))
	f.Add(make([]byte, 16), false, int16(0), uint8(1))
	special := make([]byte, 16*24)
	for i := 0; i < len(special); i += 8 {
		v := []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e300}[(i/8)%5]
		binary.LittleEndian.PutUint64(special[i:], math.Float64bits(v))
	}
	f.Add(special, false, int16(-9), uint8(40))
	f.Add(special, true, int16(400), uint8(40))

	f.Fuzz(func(t *testing.T, raw []byte, overFrame bool, at int16, nBits uint8) {
		n := len(raw) / 16
		cap := signal.New(SampleRate, n)
		off := 0
		if overFrame {
			cap = signal.New(SampleRate, len(frame))
			copy(cap.Samples, frame)
			off = int(uint16(at)) % len(frame)
			n = min(n, len(frame)-off)
		}
		for i := 0; i < n; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			cap.Samples[off+i] = complex(re, im)
		}
		prev := simd.Enabled()
		defer simd.SetEnabled(prev)
		simd.SetEnabled(false)
		goOut := demodAll(cap, int(at), int(nBits))
		simd.SetEnabled(true)
		simdOut := demodAll(cap, int(at), int(nBits))

		if goOut.start != simdOut.start || !sameFloat(goOut.q, simdOut.q) {
			t.Fatalf("Detect: go (%d, %v) simd (%d, %v)", goOut.start, goOut.q, simdOut.start, simdOut.q)
		}
		if string(goOut.bits) != string(simdOut.bits) {
			t.Fatalf("RawBitsAt: go %v simd %v", goOut.bits, simdOut.bits)
		}
		if len(goOut.powers) != len(simdOut.powers) {
			t.Fatalf("BitPowers: %d vs %d values", len(goOut.powers), len(simdOut.powers))
		}
		for i := range goOut.powers {
			if !sameFloat(goOut.powers[i], simdOut.powers[i]) {
				t.Fatalf("BitPowers[%d]: go %v simd %v", i, goOut.powers[i], simdOut.powers[i])
			}
		}
	})
}
