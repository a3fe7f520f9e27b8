package main

import "time"

// Shared machines change speed over seconds (see README.md, "Noise and
// bounds"). A run therefore splits its operations into consecutive
// windows of a few seconds, computes each end-to-end figure per window
// and reports the median over windows: a stretch the machine slowed
// counts as one outlying window rather than dragging a whole-run mean.

// windowLen is the window length of the serve workloads; the sweep's
// window is one round over the grid (about 2.5 s).
const windowLen = 3 * time.Second

// windowOp is one completed operation.
type windowOp struct {
	win   int     // window index
	radio int     // index into radios
	pkts  int     // packets (or captures) the operation carried
	lat   float64 // latency, seconds
}

// windowFigures are the medians over windows of the per-window figures.
type windowFigures struct {
	p50Ms, p95Ms float64
	radioRate    []float64 // per radio: packets ÷ summed latency of its operations
	radioTypical []float64 // per radio: the median operation's packets ÷ latency
	pktRate      float64   // packets per wall second
	opRate       float64   // operations per wall second
	ops          int
	radioPkts    []int
	pkts         int
}

// summarize computes the figures per window — wall[w] is window w's
// length in seconds — and returns their medians over the windows. A
// window without operations of a radio is left out of that radio's
// median.
func summarize(ops []windowOp, wall []float64) windowFigures {
	n := len(wall)
	lats := make([][]float64, n)
	pkts := make([]float64, n)
	rpkts := make([][]float64, len(radios))
	rbusy := make([][]float64, len(radios))
	rops := make([][][]float64, len(radios)) // per radio and window: each operation's rate
	for i := range radios {
		rpkts[i], rbusy[i], rops[i] = make([]float64, n), make([]float64, n), make([][]float64, n)
	}
	m := windowFigures{ops: len(ops), radioPkts: make([]int, len(radios))}
	for _, op := range ops {
		lats[op.win] = append(lats[op.win], op.lat*1e3)
		pkts[op.win] += float64(op.pkts)
		rpkts[op.radio][op.win] += float64(op.pkts)
		rbusy[op.radio][op.win] += op.lat
		rops[op.radio][op.win] = append(rops[op.radio][op.win], float64(op.pkts)/op.lat)
		m.radioPkts[op.radio] += op.pkts
		m.pkts += op.pkts
	}
	var p50, p95, pktRate, opRate []float64
	for w := 0; w < n; w++ {
		if len(lats[w]) == 0 {
			continue
		}
		opRate = append(opRate, float64(len(lats[w]))/wall[w])
		pktRate = append(pktRate, pkts[w]/wall[w])
		p50 = append(p50, percentile(lats[w], 0.50))
		p95 = append(p95, percentile(lats[w], 0.95))
	}
	m.p50Ms, m.p95Ms = median(p50), median(p95)
	m.pktRate, m.opRate = median(pktRate), median(opRate)
	for i := range radios {
		var rates, typical []float64
		for w := 0; w < n; w++ {
			if rbusy[i][w] > 0 {
				rates = append(rates, rpkts[i][w]/rbusy[i][w])
				typical = append(typical, median(rops[i][w]))
			}
		}
		m.radioRate = append(m.radioRate, median(rates))
		m.radioTypical = append(m.radioTypical, median(typical))
	}
	return m
}

// timeWindows splits a span of length total into windowLen windows and
// returns their lengths in seconds (the last one may be shorter).
func timeWindows(total time.Duration) []float64 {
	var out []float64
	for t := time.Duration(0); t < total; t += windowLen {
		out = append(out, min(windowLen, total-t).Seconds())
	}
	return out
}

// windowAt is the index of the windowLen window holding offset t, with
// anything past the last window counted in the last one.
func windowAt(t time.Duration, n int) int {
	return min(int(t/windowLen), n-1)
}

// addLatencyAndRates adds p50_ms, p95_ms and the per-radio packet rates
// from m (rates as given), with the operations behind each for the sample
// count.
func addLatencyAndRates(r *report, m windowFigures, rates []float64) {
	r.add("p50_ms", m.p50Ms, "ms", m.ops)
	r.add("p95_ms", m.p95Ms, "ms", m.ops)
	for i, ri := range radios {
		r.add(ri.key+"_pkts_per_s", rates[i], "1/s", m.radioPkts[i])
	}
}
