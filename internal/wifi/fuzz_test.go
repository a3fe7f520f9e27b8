package wifi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/signal"
	"repro/internal/simd"
)

// FuzzParseDataFrame must never panic and must only accept inputs whose
// FCS verifies.
func FuzzParseDataFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 28))
	f.Add(sampleFrame([]byte("seed")).Marshal())
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ParseDataFrame(data)
		if err != nil {
			return
		}
		// Anything accepted must re-marshal to the identical PSDU.
		if !bytes.Equal(frame.Marshal(), data) {
			t.Fatalf("accepted frame does not round trip")
		}
	})
}

// FuzzViterbiDecode must tolerate arbitrary coded streams (values beyond
// 0/1/erasure included) without panicking.
func FuzzViterbiDecode(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, coded []byte) {
		if len(coded)%2 != 0 {
			coded = coded[:len(coded)-len(coded)%2]
		}
		out, err := ViterbiDecode(coded)
		if err != nil {
			t.Fatalf("even-length stream rejected: %v", err)
		}
		if len(out) != len(coded)/2 {
			t.Fatalf("decoded %d bits from %d coded", len(out), len(coded))
		}
	})
}

// receiveWith runs a default Receiver over cap with SIMD dispatch forced
// to on, restoring the previous state.
func receiveWith(cap *signal.Signal, on bool) (*RxPacket, error) {
	prev := simd.SetEnabled(on)
	defer simd.SetEnabled(prev)
	return NewReceiver().Receive(cap)
}

// FuzzWiFiReceive drives arbitrary captures (raw float64 bits, so NaN,
// ±Inf, −0 and subnormals appear; empty included) through
// Receiver.Receive under both SIMD dispatch states. The raw samples
// repeat to fill a capture 1–256 times their own length (up to 2^16
// samples), so long captures cost a short input. With overFrame set
// they overwrite part of a real PPDU behind a zero lead-in instead, so
// detection locks and the decoder runs past SIGNAL into the data
// symbols. Nothing may panic, and both states must return the same
// PSDU, start and error.
func FuzzWiFiReceive(f *testing.F) {
	psdu := AppendFCS([]byte("fuzz wifi receive"))
	sig, err := NewTransmitter().Transmit(psdu, Rates[6])
	if err != nil {
		f.Fatal(err)
	}
	frame := append(make([]complex128, 100), sig.Samples...)
	f.Add([]byte{}, false, uint16(0), uint8(0))
	f.Add([]byte{}, true, uint16(0), uint8(0))
	special := make([]byte, 16*24)
	for i := 0; i < len(special); i += 8 {
		v := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e300, -2.5}[(i/8)%7]
		binary.LittleEndian.PutUint64(special[i:], math.Float64bits(v))
	}
	f.Add(special, false, uint16(0), uint8(3))
	f.Add(special, true, uint16(100+PreambleLen), uint8(0))
	f.Add(special[:16], true, uint16(100+PreambleLen+SymbolLen+5), uint8(0))
	// A long finite capture: 64 raw samples repeated 256 times.
	long := make([]byte, 16*64)
	for i := 0; i < len(long); i += 8 {
		binary.LittleEndian.PutUint64(long[i:], math.Float64bits(float64(i%13)-6))
	}
	f.Add(long, false, uint16(0), uint8(255))

	f.Fuzz(func(t *testing.T, raw []byte, overFrame bool, at uint16, reps uint8) {
		nraw := len(raw) / 16
		sample := func(i int) complex128 {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			return complex(re, im)
		}
		var cap *signal.Signal
		if overFrame {
			cap = signal.New(SampleRate, len(frame))
			copy(cap.Samples, frame)
			off := int(at) % len(frame)
			for i := 0; i < min(nraw, len(frame)-off); i++ {
				cap.Samples[off+i] = sample(i)
			}
		} else {
			cap = signal.New(SampleRate, min(nraw*(1+int(reps)), 1<<16))
			for i := range cap.Samples {
				cap.Samples[i] = sample(i % nraw)
			}
		}
		goPkt, goErr := receiveWith(cap, false)
		simdPkt, simdErr := receiveWith(cap, true)
		if fmt.Sprint(goErr) != fmt.Sprint(simdErr) {
			t.Fatalf("Receive error: go %v, simd %v", goErr, simdErr)
		}
		if (goPkt == nil) != (simdPkt == nil) {
			t.Fatalf("Receive packet: go %v, simd %v", goPkt, simdPkt)
		}
		if goPkt != nil && (goPkt.StartIdx != simdPkt.StartIdx || !bytes.Equal(goPkt.PSDU, simdPkt.PSDU)) {
			t.Fatalf("Receive: go start %d PSDU %x, simd start %d PSDU %x",
				goPkt.StartIdx, goPkt.PSDU, simdPkt.StartIdx, simdPkt.PSDU)
		}
	})
}
