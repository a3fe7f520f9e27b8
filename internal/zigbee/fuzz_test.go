package zigbee

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// receiveOutputs is what Receive answers for one capture.
type receiveOutputs struct {
	frame *RxFrame
	err   error
}

func receiveWith(cap *signal.Signal, on bool) receiveOutputs {
	prev := simd.SetEnabled(on)
	defer simd.SetEnabled(prev)
	rx := NewReceiver()
	rx.CollectFlips = true
	f, err := rx.Receive(cap)
	return receiveOutputs{f, err}
}

func sameFrame(a, b *RxFrame) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.StartIdx == b.StartIdx && a.FCSOK == b.FCSOK &&
		sameFloat(a.RSSI, b.RSSI) && sameFloat(a.CorrMargin, b.CorrMargin) &&
		reflect.DeepEqual(a.Payload, b.Payload) && reflect.DeepEqual(a.Symbols, b.Symbols) &&
		reflect.DeepEqual(a.Flips, b.Flips)
}

// FuzzZigBeeDetect drives arbitrary captures (raw float64 bits, so NaN,
// ±Inf, −0 and subnormals appear) through the preamble scan and the full
// receiver under both SIMD dispatch states. Raw captures are
// len(preambleTemplate)+0…16 samples long, the raw samples repeating to
// fill them, so the scan runs the 8-offset block path, the scalar tail or
// both from any start offset. With overFrame set the raw samples
// overwrite part of a real frame behind a zero lead-in instead, so the
// scan can lock and Receive decodes past the preamble. Nothing may panic;
// detect must agree on start and quality bits and on the gain (NaN
// compared as a class), and Receive on the frame and the error.
func FuzzZigBeeDetect(f *testing.F) {
	sig, err := NewTransmitter().Transmit([]byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	frame := append(make([]complex128, 40), sig.Samples...)
	f.Add([]byte{}, false, uint8(7), uint16(0), uint16(0))
	f.Add([]byte{}, true, uint8(0), uint16(3), uint16(0))
	f.Add(make([]byte, 16), false, uint8(16), uint16(5), uint16(0))
	special := make([]byte, 16*24)
	for i := 0; i < len(special); i += 8 {
		v := []float64{math.NaN(), math.Inf(1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e300, -2.5}[(i/8)%6]
		binary.LittleEndian.PutUint64(special[i:], math.Float64bits(v))
	}
	f.Add(special, false, uint8(6), uint16(1), uint16(0))
	f.Add(special, true, uint8(0), uint16(0), uint16(700))
	f.Add(special[:16], true, uint8(0), uint16(9), uint16(20))

	f.Fuzz(func(t *testing.T, raw []byte, overFrame bool, extra uint8, from, at uint16) {
		nraw := len(raw) / 16
		sample := func(i int) complex128 {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			return complex(re, im)
		}
		var cap *signal.Signal
		start := int(from)
		if overFrame {
			cap = signal.New(SampleRate, len(frame))
			copy(cap.Samples, frame)
			off := int(at) % len(frame)
			for i := 0; i < min(nraw, len(frame)-off); i++ {
				cap.Samples[off+i] = sample(i)
			}
			start %= 64
		} else {
			cap = signal.New(SampleRate, len(preambleTemplate)+int(extra%17))
			if nraw > 0 {
				for i := range cap.Samples {
					cap.Samples[i] = sample(i % nraw)
				}
			}
			start %= 24
		}

		goRes, simdRes := detectBoth(cap, start)
		if !sameDetect(goRes, simdRes) {
			t.Fatalf("detect from %d: go %+v, simd %+v", start, goRes, simdRes)
		}
		goRx, simdRx := receiveWith(cap, false), receiveWith(cap, true)
		if fmt.Sprint(goRx.err) != fmt.Sprint(simdRx.err) || !sameFrame(goRx.frame, simdRx.frame) {
			t.Fatalf("Receive: go (%+v, %v), simd (%+v, %v)", goRx.frame, goRx.err, simdRx.frame, simdRx.err)
		}
	})
}
