package signal_test

import (
	"math/rand"
	"testing"

	"repro/internal/bluetooth"
	"repro/internal/signal"
)

// BenchmarkConvolveCapture129Taps is the Bluetooth receive shape: the
// receiver's 129-tap ±ChannelWidth/2 channel filter over a 17,696-sample
// capture (one sweep packet), arena scoped per call as the receive path
// does. It is the largest single cost in the Bluetooth packet.
func BenchmarkConvolveCapture129Taps(b *testing.B) {
	h, err := signal.LowpassFIR(bluetooth.SampleRate, bluetooth.ChannelWidth/2, 129)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 17696)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	dst := make([]complex128, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := signal.GetArena()
		signal.ConvolveInto(dst, x, h, a)
		a.Release()
	}
}
