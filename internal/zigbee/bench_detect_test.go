package zigbee_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/zigbee"
)

// BenchmarkZigBeeDetect is the receiver's preamble scan on the near (1 m)
// link's capture of a 100 B frame behind the 400-sample lead-in every
// packet path applies: about 530 scan offsets of 16 segment
// correlations. It is the largest single cost in the ZigBee packet.
func BenchmarkZigBeeDetect(b *testing.B) {
	sig, err := zigbee.NewTransmitter().Transmit(make([]byte, 100))
	if err != nil {
		b.Fatal(err)
	}
	cap := signal.New(0, 0)
	if err := core.DefaultConfig(core.ZigBee, 1).Link.ApplyToWithPower(cap, sig, 400, false, sig.MeanPower()); err != nil {
		b.Fatal(err)
	}
	rx := zigbee.NewReceiver()
	if start, q := rx.Detect(cap); start < 0 || q < rx.DetectionThreshold {
		b.Fatalf("no preamble found (start %d, q %v)", start, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rx.Detect(cap)
	}
}
