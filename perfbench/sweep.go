package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
)

// The sweep workload: offline reproduction traffic. One caller runs
// Session.RunBatch in a closed loop over a fixed grid — every radio in
// both receiver modes at a near point (no loss) and a far point (10–50 %
// loss) of its Fig 10/12/13 distance grid, plus WiFi quaternary — with no
// waveform cache attached, so every packet pays the full PHY chain.
const (
	// sweepPkts is the packet count of one RunBatch call (one operation).
	sweepPkts = 4
	// sweepSets is how many seed sets a round runs the grid under. The
	// first round fixes the tag goodput and the result digest; every
	// later round must reproduce each result exactly.
	sweepSets = 4
	// nearMaxBER is the tag BER the near points must decode within.
	nearMaxBER = 1e-2
)

type gridPoint struct {
	radio      radioInfo
	mode       core.ReceiverMode
	dist       float64
	near       bool
	quaternary bool
}

func (p gridPoint) String() string {
	s := fmt.Sprintf("%s/%s/%gm", p.radio.key, p.mode, p.dist)
	if p.quaternary {
		s += "/quaternary"
	}
	return s
}

// config is the library configuration of grid point p under seed.
func (p gridPoint) config(seed int64) core.Config {
	cfg := core.DefaultConfig(p.radio.radio, p.dist)
	cfg.ReceiverMode = p.mode
	cfg.Seed = seed
	if p.quaternary {
		cfg.WiFiRateMbps = 12 // eq. 5 needs QPSK subcarriers
		cfg.Quaternary = true
	}
	return cfg
}

func sweepGrid() []gridPoint {
	var g []gridPoint
	for _, r := range radios {
		for _, m := range []core.ReceiverMode{core.DualReceiver, core.SingleReceiver} {
			g = append(g, gridPoint{radio: r, mode: m, dist: 1, near: true},
				gridPoint{radio: r, mode: m, dist: r.far})
		}
	}
	return append(g, gridPoint{radio: radios[0], mode: core.DualReceiver, dist: 1, near: true, quaternary: true})
}

type sweep struct {
	grid     []gridPoint
	sessions [][]*core.Session // [set][point]
	first    [][]*core.SessionResult
}

func setupSweep(seed int64) (bench, error) {
	s := &sweep{grid: sweepGrid()}
	for set := 0; set < sweepSets; set++ {
		var row []*core.Session
		for pi, p := range s.grid {
			sess, err := core.NewSession(p.config(runner.DeriveSeed(seed, "perfbench.sweep", set, pi)))
			if err != nil {
				return nil, fmt.Errorf("%v: %w", p, err)
			}
			row = append(row, sess)
		}
		s.sessions = append(s.sessions, row)
		s.first = append(s.first, make([]*core.SessionResult, len(s.grid)))
	}
	// Warm up: one packet per session builds the FFT plans, filter taps
	// and scratch pools that every later packet reuses.
	for _, row := range s.sessions {
		for _, sess := range row {
			if _, err := sess.RunBatch(1, 0); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func (s *sweep) close() {}

func (s *sweep) run(dur time.Duration, tr *tracer, r *report) (runStats, error) {
	if tr != nil {
		return s.runTraced(dur, tr, r)
	}
	// A window is one round: every seed set over the whole grid. The
	// first round fixes the goodput.
	var ops []windowOp
	var wall, lat []float64
	var goodBits, air float64
	var nearBits, nearErrs int
	start := time.Now()
	deadline := start.Add(dur)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		r0 := time.Now()
		for set := 0; set < sweepSets; set++ {
			for pi, p := range s.grid {
				t0 := time.Now()
				res, err := s.sessions[set][pi].RunBatch(sweepPkts, 0)
				el := time.Since(t0).Seconds()
				if err != nil {
					r.op(false, "sweep %v: %v", p, err)
					continue
				}
				ok, why := s.repeats(set, pi, res)
				r.op(ok, "sweep %v: %s", p, why)
				if !ok {
					continue
				}
				ops = append(ops, windowOp{win: round, radio: radioIndex(p.radio.radio), pkts: res.Packets, lat: el})
				lat = append(lat, el*1e3)
				if round == 0 {
					goodBits += float64(res.TagBitsDecoded - res.BitErrors)
					air += res.ElapsedSeconds
					if p.near {
						nearBits += res.TagBitsDecoded
						nearErrs += res.BitErrors
					}
				}
			}
		}
		wall = append(wall, time.Since(r0).Seconds())
		// The near points together must decode within nearMaxBER. A
		// rare bad packet is link physics (a single-receiver transition
		// error inverts the rest of its packet); a broken decode path is
		// not.
		if round == 0 && (nearBits == 0 || float64(nearErrs)/float64(nearBits) > nearMaxBER) {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("near points decoded %d bits with %d errors, BER above %g", nearBits, nearErrs, nearMaxBER))
		}
	}
	if len(ops) == 0 {
		return runStats{}, errNoOps
	}
	m := summarize(ops, wall)
	addLatencyAndRates(r, m, m.radioRate)
	addTail(r, lat)
	r.add("pkts_per_s", m.pktRate, "1/s", m.pkts)
	r.add("max_rps", m.opRate, "1/s", m.ops)
	r.add("tag_goodput_kbps", goodBits/air/1e3, "kbps", sweepSets*len(s.grid)*sweepPkts)
	fmt.Printf("# sweep digest %s over %d points x %d seed sets, %d rounds\n", s.digest(), len(s.grid), sweepSets, len(wall))
	return runStats{meanOpMs: mean(lat), ops: len(lat)}, nil
}

// repeats checks that a (set, point) reproduces its first result
// exactly.
func (s *sweep) repeats(set, pi int, res core.SessionResult) (bool, string) {
	if f := s.first[set][pi]; f == nil {
		s.first[set][pi] = &res
	} else if *f != res {
		return false, fmt.Sprintf("seed set %d result changed between rounds: %+v then %+v", set, *f, res)
	}
	return true, ""
}

// digest hashes the first result of every (set, point) in grid order: the
// same seed must give the same digest in every run.
func (s *sweep) digest() string {
	h := sha256.New()
	for set := range s.first {
		for pi, f := range s.first[set] {
			if f != nil {
				fmt.Fprintf(h, "%d/%d:%+v\n", set, pi, *f)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// addTail adds, for people, the highest percentile of the pooled
// latencies (ms) that keeps ten samples beyond it, when that is above p95.
func addTail(r *report, lat []float64) {
	if p := tailPercentile(len(lat)); p > 95 {
		r.add(fmt.Sprintf("p%g_ms", p), percentile(append([]float64(nil), lat...), p/100), "ms", len(lat))
	}
}

// runTraced composes each grid point's packets from the layer calls core
// makes, one span per call, and times core's own RunPacketBatch on the
// same sessions for the per-packet reference the stage split must cover.
// The quaternary point is left out: its composition would repeat the
// binary WiFi one with another translator.
func (s *sweep) runTraced(dur time.Duration, tr *tracer, r *report) (runStats, error) {
	mark := tr.count()
	var composedMs []float64
	lost := make([]int, len(radios))
	ran := make([]int, len(radios))
	samples := make([]int, len(radios))
	deadline := time.Now().Add(dur)
	var req int64
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		set := pass % sweepSets
		for pi, p := range s.grid {
			if p.quaternary {
				continue
			}
			ri := radioIndex(p.radio.radio)
			cfg := s.sessions[set][pi].Config()
			var opMs float64
			for k := 0; k < sweepPkts; k++ {
				req++
				start := time.Now()
				capture, err := composedPacket(tr, req, cfg, k)
				r.op(err == nil, "traced %v: %v", p, err)
				if err != nil {
					continue
				}
				opMs += time.Since(start).Seconds() * 1e3
				samples[ri] += len(capture.Samples)

				id := tr.begin("core.packet."+p.radio.key, 0, req)
				prs, err := s.sessions[set][pi].RunPacketBatch(k, 1)
				tr.end(id)
				r.op(err == nil, "RunPacketBatch %v: %v", p, err)
				if err != nil {
					continue
				}
				ran[ri]++
				if !prs[0].Decoded {
					lost[ri]++
				}
			}
			composedMs = append(composedMs, opMs)
		}
	}
	lt := aggregateSelf(tr.since(mark))
	for i, ri := range radios {
		k := ri.key
		for _, st := range stageSpans(ri) {
			if st.metric == "" {
				continue
			}
			v, n, err := lt.meanSelfUs(st.span)
			if err != nil {
				return runStats{}, err
			}
			r.add(st.metric, v, "us", n)
		}
		// Coverage: the self time of every stage below the composed
		// packet, BER included, against core's own time per packet.
		var stageNs int64
		for _, st := range stageSpans(ri) {
			stageNs += lt[st.span].selfNs
		}
		pktUs, n, err := lt.meanSelfUs("core.packet." + k)
		if err != nil {
			return runStats{}, err
		}
		composed := lt["packet."+k].n
		r.add("core.packet_us."+k, pktUs, "us", n)
		r.add("core.loss_frac."+k, float64(lost[i])/float64(ran[i]), "frac", ran[i])
		r.add("core.stage_coverage."+k, float64(stageNs)/float64(composed)/1e3/pktUs, "ratio", composed)
		r.add("channel.samples_per_pkt."+k, float64(samples[i])/float64(composed), "count", composed)
		allocs, err := allocsPerPacket(ri)
		if err != nil {
			return runStats{}, err
		}
		r.add("core.allocs_per_pkt."+k, allocs, "count", allocsRuns)
	}
	return runStats{meanOpMs: mean(composedMs), ops: len(composedMs)}, nil
}

// allocsRuns is how many single-packet batches allocsPerPacket averages.
const allocsRuns = 8

// allocsPerPacket counts heap allocations of one RunPacketBatch packet on
// the radio's near dual-receiver link.
func allocsPerPacket(ri radioInfo) (float64, error) {
	sess, err := core.NewSession(gridPoint{radio: ri, mode: core.DualReceiver, dist: 1}.config(1))
	if err != nil {
		return 0, err
	}
	var runErr error
	k := 0
	n := testing.AllocsPerRun(allocsRuns, func() {
		if _, err := sess.RunPacketBatch(k, 1); err != nil {
			runErr = err
		}
		k++
	})
	return n, runErr
}
