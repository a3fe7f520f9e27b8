package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	freerider "repro"

	"repro/internal/bluetooth"
	"repro/internal/fec"
	"repro/internal/runner"
	"repro/internal/wifi"
	"repro/internal/zigbee"
)

// The serve_decode workload: independent gateways posting captures to
// /v1/decode of an in-process server with default config, as an open
// loop over at most decodeConns connections. Each request is timed from
// when it was due.
const (
	decodeConns = 2
	// decodeRate is the fixed offered rate (req/s) of the latency phase,
	// well under the server's capacity at the default 2 ms batch window.
	decodeRate = 150.0
	// decodeCases is how many distinct requests the generator builds.
	decodeCases = 512
	// decodeFixedShare is the share of a run spent at decodeRate; the
	// closed-loop capacity phase gets the rest.
	decodeFixedShare = 0.6
)

// decodeCase is one generated request with the answer it must get.
type decodeCase struct {
	radio   int
	body    []byte
	want    string // tag bits, or the data bits for a coded request
	coded   bool
	lay     fec.Layout
	hard    []byte // coded requests: the coded tag bits the decoder sees
	lib     freerider.DecodeRequest
	airtime float64 // the excitation packet the stream stands for, s
}

type decodeReply struct {
	TagBits string `json:"tag_bits"`
	Coded   *struct {
		DataBits string `json:"data_bits"`
		OK       bool   `json:"ok"`
	} `json:"coded"`
}

func (c *decodeCase) check(rep decodeReply) error {
	got := rep.TagBits
	if c.coded {
		if rep.Coded == nil || !rep.Coded.OK {
			return fmt.Errorf("coded %s request: no clean RS decode", radios[c.radio].key)
		}
		got = rep.Coded.DataBits
	}
	if got != c.want {
		return fmt.Errorf("%s request: decoded %d bits differ from the %d encoded", radios[c.radio].key, len(got), len(c.want))
	}
	return nil
}

// genDecodeCases builds the request mix from seed: the three radios in
// both receiver modes, stream lengths from the ZigBee 100 B packet to the
// WiFi 1500 B one, and about a quarter RS-coded. Every stream is the
// exact forward model of its tag bits (freerider.EncodeStream for dual
// mode, the absolute flip state per unit for single mode).
func genDecodeCases(seed int64) ([]decodeCase, error) {
	rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, "perfbench.decode")))
	rate := wifi.Rates[6]
	out := make([]decodeCase, 0, decodeCases)
	for i := 0; i < decodeCases; i++ {
		// The composition is fixed — radios in turn, each in both modes,
		// one request in four coded — so only sizes and bits vary by seed.
		ri := i % len(radios)
		single := (i/len(radios))%2 == 1
		coded := (i/(2*len(radios)))%4 == 0
		c := decodeCase{radio: ri}
		var n, window int
		switch radios[ri].radio {
		case freerider.WiFi:
			size := 100 + rng.Intn(1401)
			nSym := wifi.NumDataSymbols(size+4, rate)
			n, window = nSym*rate.NDBPS, 4*rate.NDBPS
			if single {
				n, window = nSym-1, 4
			}
			c.airtime = wifi.PacketDuration(size+4, rate)
		case freerider.ZigBee:
			n, window = 2*(100+2), 4
			c.airtime = zigbee.FrameDuration(100)
		case freerider.Bluetooth:
			size := 100 + rng.Intn(156)
			n, window = 8*(size+10)-btHeaderBits, 16
			c.airtime = bluetooth.FrameDuration(size)
		}
		capacity := n / window
		tagBits := randBits(rng, capacity)
		c.want = bitString(tagBits)
		var coding *fec.Config
		if coded {
			cfg := fec.DefaultConfig()
			if lay, err := fec.LayoutFor(capacity, cfg); err == nil {
				data := randBits(rng, lay.DataBits())
				enc, err := lay.EncodeBits(data)
				if err != nil {
					return nil, err
				}
				copy(tagBits, enc)
				c.coded, c.lay, c.hard, c.want = true, lay, enc, bitString(data)
				coding = &cfg
			}
		}
		req := map[string]any{"radio": radios[ri].key, "window": window}
		if coding != nil {
			req["coding"] = coding
		}
		c.lib = freerider.DecodeRequest{Radio: radios[ri].radio, Window: window, Single: single}
		if single {
			feat := make([]byte, capacity*window)
			for i := range feat {
				feat[i] = tagBits[i/window]
			}
			req["mode"], req["rx"] = "single", bitString(feat)
			c.lib.RX = feat
		} else {
			alphabet := 2
			if radios[ri].radio == freerider.ZigBee {
				alphabet = 16
			}
			ref := make([]byte, n)
			for i := range ref {
				ref[i] = byte(rng.Intn(alphabet))
			}
			rx, used, err := freerider.EncodeStream(radios[ri].radio, ref, tagBits, window)
			if err != nil {
				return nil, err
			}
			if used != capacity {
				return nil, fmt.Errorf("encoded %d of %d tag bits", used, capacity)
			}
			req["ref"], req["rx"] = bitString(ref), bitString(rx)
			c.lib.Ref, c.lib.RX = ref, rx
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		c.body = body
		out = append(out, c)
	}
	return out, nil
}

func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

// bitString renders stream elements in the server's wire format: one
// hex digit per element.
func bitString(vals []byte) string {
	const digits = "0123456789abcdef"
	var b strings.Builder
	b.Grow(len(vals))
	for _, v := range vals {
		b.WriteByte(digits[v&0x0f])
	}
	return b.String()
}

type serveDecode struct {
	seed  int64
	cases []decodeCase
	ls    *liveServer
}

func setupServeDecode(seed int64) (bench, error) {
	cases, err := genDecodeCases(seed)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(decodeConns)
	if err != nil {
		return nil, err
	}
	s := &serveDecode{seed: seed, cases: cases, ls: ls}
	// Warm up both connections and the handler path.
	for i := 0; i < 64; i++ {
		var rep decodeReply
		c := &cases[i]
		if err := ls.post(i%decodeConns, "client.decode", "/v1/decode", 0, c.body, &rep); err != nil {
			ls.close()
			return nil, err
		}
		if err := c.check(rep); err != nil {
			ls.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *serveDecode) close() { s.ls.close() }

// phase runs one open-loop phase at rate for dur, sending the cases in
// turn (request i carries case i mod len), and checks every reply.
func (s *serveDecode) phase(rate float64, dur time.Duration, r *report) []sample {
	due := fixedSchedule(rate, dur)
	errs := make([]error, len(due))
	ss := openLoop(time.Now(), due, decodeConns, func(conn, i int) bool {
		var rep decodeReply
		c := &s.cases[i%len(s.cases)]
		err := s.ls.post(conn, "client.decode", "/v1/decode", int64(i+1), c.body, &rep)
		if err == nil {
			err = c.check(rep)
		}
		errs[i] = err
		return err == nil
	})
	for _, err := range errs {
		r.op(err == nil, "decode: %v", err)
	}
	return ss
}

func (s *serveDecode) run(dur time.Duration, tr *tracer, r *report) (runStats, error) {
	if tr != nil {
		return s.runTraced(dur, tr, r)
	}
	fixed := time.Duration(float64(dur) * decodeFixedShare)
	ss := s.phase(decodeRate, fixed, r)
	wall := timeWindows(fixed)
	var ops []windowOp
	var lat, late []float64
	var goodBits, air float64
	var end time.Duration
	for i, sm := range ss {
		end = max(end, sm.done)
		late = append(late, sm.late().Seconds()*1e3)
		if !sm.ok {
			continue
		}
		c := &s.cases[i%len(s.cases)]
		l := sm.latency().Seconds()
		ops = append(ops, windowOp{win: windowAt(sm.due, len(wall)), radio: c.radio, pkts: 1, lat: l})
		lat = append(lat, l*1e3)
		goodBits += float64(len(c.want))
		air += c.airtime
	}
	if len(ops) == 0 {
		return runStats{}, errNoOps
	}
	m := summarize(ops, wall)
	// One capture per request, so a radio's rate is the inverse of its
	// latency. The median request's is taken, not the mean's: the host's
	// preemptions land in the tail (see README.md).
	addLatencyAndRates(r, m, m.radioTypical)
	addTail(r, lat)
	r.add("loadgen.late_p99_ms", percentile(late, 0.99), "ms", len(late))
	// The achieved rate of an open loop is its offered rate while the
	// server keeps up; it falls only when replies lag the schedule.
	r.add("pkts_per_s", float64(len(ops))/end.Seconds(), "1/s", len(ops))
	r.add("tag_goodput_kbps", goodBits/air/1e3, "kbps", len(ops))
	rate, n := s.saturate(dur-fixed, r)
	r.add("max_rps", rate, "1/s", n)
	return runStats{meanOpMs: mean(lat), ops: len(lat)}, nil
}

// saturate runs decodeConns clients in a closed loop for dur: each sends
// its next request as soon as the previous reply is in, so the completed
// rate is the most the connections carry. It returns the median over
// windows of that rate and the number of requests behind it.
func (s *serveDecode) saturate(dur time.Duration, r *report) (float64, int) {
	wall := timeWindows(dur)
	per := make([][]windowOp, decodeConns)
	errs := make([][]error, decodeConns)
	start := time.Now()
	closedLoop(decodeConns, dur, func(conn, seq int) {
		var rep decodeReply
		c := &s.cases[(seq*decodeConns+conn)%len(s.cases)]
		t0 := time.Now()
		err := s.ls.post(conn, "client.decode", "/v1/decode", int64(seq+1), c.body, &rep)
		if err == nil {
			err = c.check(rep)
		}
		errs[conn] = append(errs[conn], err)
		if err == nil {
			per[conn] = append(per[conn], windowOp{win: windowAt(time.Since(start), len(wall)), radio: c.radio, pkts: 1, lat: time.Since(t0).Seconds()})
		}
	})
	var ops []windowOp
	for c := range per {
		ops = append(ops, per[c]...)
		for _, err := range errs[c] {
			r.op(err == nil, "decode: %v", err)
		}
	}
	return summarize(ops, wall).opRate, len(ops)
}

func (s *serveDecode) runTraced(dur time.Duration, tr *tracer, r *report) (runStats, error) {
	before, err := s.ls.metrics()
	if err != nil {
		return runStats{}, err
	}
	mark := tr.count()
	s.ls.tr.Store(tr)
	ss := s.phase(decodeRate, dur, r)
	s.ls.tr.Store(nil)
	after, err := s.ls.metrics()
	if err != nil {
		return runStats{}, err
	}
	var lat, late []float64
	for _, sm := range ss {
		late = append(late, sm.late().Seconds()*1e3)
		if sm.ok {
			lat = append(lat, sm.latency().Seconds()*1e3)
		}
	}
	if len(lat) == 0 {
		return runStats{}, errNoOps
	}
	dec := after.Endpoints["decode"]
	nreq := dec.Requests - before.Endpoints["decode"].Requests
	r.add("server.decode_handler_p50_ms", dec.Latency.P50Ms, "ms", int(dec.Latency.Count))
	r.add("server.batch_mean", float64(after.Batcher.Requests-before.Batcher.Requests)/
		float64(after.Batcher.Batches-before.Batcher.Batches), "count", int(after.Batcher.Batches-before.Batcher.Batches))
	r.add("server.rejected_frac", float64(dec.Rejected-before.Endpoints["decode"].Rejected)/float64(nreq), "frac", int(nreq))
	tp := transportMs(tr.since(mark), "client.decode")
	r.add("server.transport_p50_ms", median(tp), "ms", len(tp))
	r.add("loadgen.late_p99_ms", percentile(late, 0.99), "ms", len(late))

	reqs := make([]freerider.DecodeRequest, len(s.cases))
	var coded []*decodeCase
	for i := range s.cases {
		reqs[i] = s.cases[i].lib
		if s.cases[i].coded {
			coded = append(coded, &s.cases[i])
		}
	}
	r.add("decoder.batch_us_per_req", timeCall(kernelSamples, func() { freerider.DecodeBatch(reqs, 0) })/float64(len(reqs))/1e3, "us", kernelSamples*len(reqs))
	r.add("fec.decode_us", timeCall(kernelSamples, func() {
		for _, c := range coded {
			c.lay.DecodeBits(c.hard)
		}
	})/float64(len(coded))/1e3, "us", kernelSamples*len(coded))
	return runStats{meanOpMs: mean(lat), ops: len(lat)}, nil
}
