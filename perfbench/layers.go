package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bits"
	"repro/internal/bluetooth"
	"repro/internal/core"
	"repro/internal/decoder"
	"repro/internal/runner"
	"repro/internal/signal"
	"repro/internal/tag"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

// Receiver detection thresholds core applies by default (its calibrated
// commodity-chip sensitivities).
const (
	wifiDetect = 0.72
	zbDetect   = 0.85
	btDetect   = 0.81
)

// btHeaderBits is the untranslated Bluetooth preamble + access address.
const btHeaderBits = 40

type stageSpan struct{ metric, span string }

// stageSpans lists the composed packet's stage spans for one radio, with
// the per-layer metric each one reports ("" for BER, which only counts
// toward stage coverage).
func stageSpans(ri radioInfo) []stageSpan {
	k := ri.key
	out := []stageSpan{{k + ".tx_us", k + ".tx"}, {"tag.translate_us." + k, "tag.translate." + k}}
	if ri.shifts {
		out = append(out, stageSpan{"tag.shift_us." + k, "tag.shift." + k})
	}
	return append(out,
		stageSpan{"channel.apply_us." + k, "channel.apply." + k},
		stageSpan{k + ".rx_us", k + ".rx"},
		stageSpan{"decoder.windows_us." + k, "decoder.windows." + k},
		stageSpan{"decoder.differential_us." + k, "decoder.differential." + k},
		stageSpan{"", "decoder.ber." + k})
}

// composer runs one packet through the public layer calls core makes —
// transmit, translate, shift, channel, receive, window decode, BER — with
// a span around each. Content and channel draws come from the packet's
// own stream, so the composition is deterministic but not bit-identical
// to core (core's content framing is internal); it measures where a
// packet's time goes, not what it decodes to.
type composer struct {
	tr   *tracer
	req  int64
	root int64
	key  string
	cfg  core.Config
	rng  *rand.Rand
}

// span runs fn inside a child span of the packet. Layer spans are named
// "<layer>.<radio>" (tag.translate.wifi); the radio's own PHY calls
// "<radio>.<stage>" (wifi.tx, zigbee.rx).
func (c *composer) span(name string, fn func() error) error {
	id := c.tr.begin(name, c.root, c.req)
	err := fn()
	c.tr.end(id)
	return err
}

// composedPacket runs packet k of cfg's link through the composed
// pipeline and returns the receiver capture. A packet the receiver
// misses is link physics, not an error.
func composedPacket(tr *tracer, req int64, cfg core.Config, k int) (*signal.Signal, error) {
	c := &composer{
		tr: tr, req: req, cfg: cfg,
		key: radios[radioIndex(cfg.Radio)].key,
		rng: rand.New(rand.NewSource(runner.DeriveSeed(cfg.Seed, "perfbench.composed", k))),
	}
	c.root = tr.begin("packet."+c.key, 0, req)
	defer tr.end(c.root)
	switch cfg.Radio {
	case core.WiFi:
		return c.wifi()
	case core.ZigBee:
		return c.zigbee()
	case core.Bluetooth:
		return c.bluetooth()
	}
	return nil, fmt.Errorf("unknown radio %v", cfg.Radio)
}

// channel applies the link with a per-packet channel seed.
func (c *composer) channel(wave *signal.Signal) (*signal.Signal, error) {
	capture := signal.New(0, 0)
	link := c.cfg.Link
	link.Seed = c.rng.Int63()
	err := c.span("channel.apply."+c.key, func() error {
		return link.ApplyToWithPower(capture, wave, 400, false, wave.MeanPower())
	})
	return capture, err
}

// decode runs the dual (window compare) or single (differential) decode
// and the BER count.
func (c *composer) decode(ref, rx, feat []byte, window int, threshold float64, tagBits []byte, used int) error {
	var ws []decoder.WindowResult
	var err error
	if c.cfg.ReceiverMode == core.SingleReceiver {
		err = c.span("decoder.differential."+c.key, func() error {
			ws, err = decoder.DecodeDifferentialWindows(feat, window, 0.5)
			return err
		})
	} else {
		err = c.span("decoder.windows."+c.key, func() error {
			ws, _, err = decoder.DecodeWindows(ref, rx, window, threshold)
			return err
		})
	}
	if err != nil {
		return err
	}
	if len(ws) > used {
		ws = ws[:used]
	}
	return c.span("decoder.ber."+c.key, func() error {
		decoder.BER(tagBits[:used], decoder.Bits(ws))
		return nil
	})
}

func (c *composer) wifi() (*signal.Signal, error) {
	cfg := c.cfg
	rate := wifi.Rates[cfg.WiFiRateMbps]
	psdu := make([]byte, cfg.PayloadSize+4)
	c.rng.Read(psdu)
	trl := &tag.PhaseTranslator{
		DataStart:     float64(wifi.PreambleLen)/wifi.SampleRate + 2*wifi.SymbolTime,
		SymbolPeriod:  wifi.SymbolTime,
		SymbolsPerBit: cfg.Redundancy,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		Latency:       tag.EnvelopeLatency,
	}
	tagBits := randBits(c.rng, trl.Capacity(wifi.PacketDuration(len(psdu), rate)))
	tx := &wifi.Transmitter{ScramblerSeed: byte(1 + c.rng.Intn(127)), FixedSeed: true}
	var exc, wave *signal.Signal
	var used int
	err := c.span(c.key+".tx", func() (err error) { exc, err = tx.Transmit(psdu, rate); return err })
	if err == nil {
		err = c.span("tag.translate."+c.key, func() (err error) { wave, used, err = trl.Translate(exc, tagBits); return err })
	}
	if err == nil {
		err = c.span("tag.shift."+c.key, func() error {
			_, err := tag.ChannelShifter{OffsetHz: 20e6, Mode: tag.ShiftEquivalentBaseband}.Shift(wave)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	capture, err := c.channel(wave)
	if err != nil {
		return nil, err
	}
	rx := wifi.NewReceiver()
	rx.DetectionThreshold = wifiDetect
	rx.SkipRSSI = true
	rx.CollectPilotPhases = cfg.ReceiverMode == core.SingleReceiver
	var pkt *wifi.RxPacket
	if c.span(c.key+".rx", func() (err error) { pkt, err = rx.Receive(capture); return err }) != nil || len(pkt.PSDU) != len(psdu) {
		return capture, nil // lost
	}
	ref := make([]byte, wifi.NumDataSymbols(len(psdu), rate)*rate.NDBPS)
	copy(ref[wifi.ServiceBits:], bits.FromBytes(psdu))
	var feat []byte
	if len(pkt.PilotPhases) > 1 {
		// The flip feature without core's drift tracker: enough to time
		// the differential decode on a stream of the right length.
		feat = make([]byte, len(pkt.PilotPhases)-1)
		for i, p := range pkt.PilotPhases[1:] {
			if math.Abs(p) > math.Pi/2 {
				feat[i] = 1
			}
		}
	}
	if len(pkt.RawBits) <= rate.NDBPS {
		return capture, nil
	}
	return capture, c.decode(ref[rate.NDBPS:], pkt.RawBits[rate.NDBPS:], feat,
		windowFor(cfg, rate), 0.5, tagBits, used)
}

// windowFor is the dual-mode WiFi window in data bits; single mode
// compares Redundancy features per window.
func windowFor(cfg core.Config, rate wifi.Rate) int {
	if cfg.ReceiverMode == core.SingleReceiver {
		return cfg.Redundancy
	}
	return cfg.Redundancy * rate.NDBPS
}

func (c *composer) zigbee() (*signal.Signal, error) {
	cfg := c.cfg
	payload := make([]byte, cfg.PayloadSize)
	c.rng.Read(payload)
	trl := &tag.PhaseTranslator{
		DataStart:     float64(zigbee.PreambleSymbols+2+2) / zigbee.SymbolRate,
		SymbolPeriod:  1 / zigbee.SymbolRate,
		SymbolsPerBit: cfg.Redundancy,
		DeltaTheta:    math.Pi,
		BitsPerStep:   1,
		Latency:       tag.EnvelopeLatency,
	}
	tagBits := randBits(c.rng, trl.Capacity(zigbee.FrameDuration(cfg.PayloadSize)))
	var exc, wave *signal.Signal
	var used int
	err := c.span(c.key+".tx", func() (err error) { exc, err = zigbee.NewTransmitter().Transmit(payload); return err })
	if err == nil {
		err = c.span("tag.translate."+c.key, func() (err error) { wave, used, err = trl.Translate(exc, tagBits); return err })
	}
	if err == nil {
		err = c.span("tag.shift."+c.key, func() error {
			_, err := tag.ChannelShifter{OffsetHz: 16e6, Mode: tag.ShiftEquivalentBaseband}.Shift(wave)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	capture, err := c.channel(wave)
	if err != nil {
		return nil, err
	}
	fcs := bits.CRC16CCITT(payload)
	ref := zigbee.SymbolsFromBytes(append(payload, byte(fcs), byte(fcs>>8)))
	rx := zigbee.NewReceiver()
	rx.DetectionThreshold = zbDetect
	rx.CollectFlips = cfg.ReceiverMode == core.SingleReceiver
	var frame *zigbee.RxFrame
	if c.span(c.key+".rx", func() (err error) { frame, err = rx.Receive(capture); return err }) != nil || len(frame.Symbols) != len(ref) {
		return capture, nil // lost
	}
	return capture, c.decode(ref, frame.Symbols, frame.Flips, cfg.Redundancy, 0.3, tagBits, used)
}

func (c *composer) bluetooth() (*signal.Signal, error) {
	cfg := c.cfg
	payload := make([]byte, cfg.PayloadSize)
	c.rng.Read(payload)
	trl := &tag.FreqTranslator{
		DataStart:     btHeaderBits / bluetooth.BitRate,
		BitPeriod:     1 / bluetooth.BitRate,
		BitsPerTagBit: cfg.Redundancy,
		ToggleHz:      bluetooth.CodewordDelta,
		Latency:       tag.EnvelopeLatency,
	}
	tagBits := randBits(c.rng, trl.Capacity(bluetooth.FrameDuration(cfg.PayloadSize)))
	btx := bluetooth.NewTransmitter()
	var exc, wave *signal.Signal
	var ref []byte
	var used int
	err := c.span(c.key+".tx", func() (err error) {
		if exc, err = btx.Transmit(payload); err == nil {
			ref, err = btx.FrameBits(payload)
		}
		return err
	})
	if err == nil {
		err = c.span("tag.translate."+c.key, func() (err error) { wave, used, err = trl.Translate(exc, tagBits); return err })
	}
	if err != nil {
		return nil, err
	}
	capture, err := c.channel(wave)
	if err != nil {
		return nil, err
	}
	rx := bluetooth.NewReceiver()
	rx.DetectionThreshold = btDetect
	single := cfg.ReceiverMode == core.SingleReceiver
	rx.CollectPower = single
	var raw, feat []byte
	errLost := errors.New("lost")
	if c.span(c.key+".rx", func() error {
		demod := rx.Demod(capture)
		start, q := demod.Detect()
		if start < 0 || q < rx.DetectionThreshold {
			return errLost
		}
		if single {
			feat = btFeatures(demod.BitPowers(start, len(ref)), len(ref))
		} else {
			raw = demod.RawBitsAt(start, len(ref))
		}
		return nil
	}) != nil || (!single && len(raw) < len(ref)) || (single && feat == nil) {
		return capture, nil // lost
	}
	if !single {
		raw = raw[btHeaderBits:]
	}
	return capture, c.decode(ref[btHeaderBits:], raw, feat, cfg.Redundancy, 0.5, tagBits, used)
}

// btFeatures slices per-bit filtered power against the header's mean, as
// core's single-receiver Bluetooth path does; nil when the frame is short.
func btFeatures(powers []float64, n int) []byte {
	if len(powers) < n {
		return nil
	}
	ref := mean(powers[:btHeaderBits])
	if ref <= 0 {
		return nil
	}
	feat := make([]byte, n-btHeaderBits)
	for i, p := range powers[btHeaderBits:n] {
		if p < 0.7*ref {
			feat[i] = 1
		}
	}
	return feat
}

// timeCall returns the median time of one fn call in nanoseconds over
// `samples` samples, each timing enough back-to-back calls to last about
// 200 µs so the clock's resolution does not show.
func timeCall(samples int, fn func()) float64 {
	t0 := time.Now()
	fn()
	inner := int(200*time.Microsecond/max(time.Since(t0), time.Nanosecond)) + 1
	xs := make([]float64, samples)
	for i := range xs {
		t := time.Now()
		for j := 0; j < inner; j++ {
			fn()
		}
		xs[i] = float64(time.Since(t).Nanoseconds()) / float64(inner)
	}
	return median(xs)
}

// kernelSamples is the sample count behind each kernel timing.
const kernelSamples = 21

// kernelProbes times the PHY and DSP kernels on captures of the near
// dual-receiver link of each radio: WiFi preamble detection and the
// int16 soft Viterbi at a 1500 B packet's coded length, ZigBee detection,
// the Bluetooth channel filter + discriminator pass, a 64-point FFT and
// the 129-tap convolution that filter runs.
func kernelProbes(seed int64, r *report) error {
	captures := make([]*signal.Signal, len(radios))
	for i, ri := range radios {
		cfg := gridPoint{radio: ri, mode: core.DualReceiver, dist: 1}.config(seed)
		capture, err := composedPacket(nil, 0, cfg, 0)
		if err != nil {
			return err
		}
		captures[i] = capture
	}
	wrx := wifi.NewReceiver()
	r.add("wifi.detect_us", timeCall(kernelSamples, func() { wrx.DetectPreamble(captures[0], 0) })/1e3, "us", kernelSamples)

	rate := wifi.Rates[6]
	q := make([]int16, wifi.NumDataSymbols(1504, rate)*rate.NCBPS)
	rng := rand.New(rand.NewSource(seed))
	for i := range q {
		q[i] = int16(rng.Intn(129) - 64)
	}
	var verr error
	r.add("wifi.viterbi_us", timeCall(kernelSamples, func() {
		if _, err := wifi.ViterbiDecodeSoftQ(q); err != nil {
			verr = err
		}
	})/1e3, "us", kernelSamples)
	if verr != nil {
		return verr
	}

	zrx := zigbee.NewReceiver()
	r.add("zigbee.detect_us", timeCall(kernelSamples, func() { zrx.Detect(captures[1]) })/1e3, "us", kernelSamples)
	brx := bluetooth.NewReceiver()
	r.add("bluetooth.demod_us", timeCall(kernelSamples, func() { brx.Demod(captures[2]) })/1e3, "us", kernelSamples)

	plan, err := signal.PlanFor(64)
	if err != nil {
		return err
	}
	src := make([]complex128, 64)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, 64)
	r.add("signal.fft64_ns", timeCall(kernelSamples, func() {
		copy(x, src) // a fresh input each call keeps magnitudes bounded
		_ = plan.FFT(x)
	}), "ns", kernelSamples)

	h, err := signal.LowpassFIR(bluetooth.SampleRate, 500e3, 129)
	if err != nil {
		return err
	}
	bt := captures[2].Samples
	dst := make([]complex128, len(bt))
	r.add("signal.convolve129_us", timeCall(kernelSamples, func() {
		a := signal.GetArena()
		signal.ConvolveInto(dst, bt, h, a)
		a.Release()
	})/1e3, "us", kernelSamples)
	return nil
}
