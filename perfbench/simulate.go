package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	freerider "repro"

	"repro/internal/core"
	"repro/internal/runner"
)

// The serve_simulate workload: research scripts waiting for answers. Two
// clients in a closed loop post /v1/simulate requests of 8–32 packets
// over all radios. About three quarters reuse a hot set of (config, seed)
// pairs whose waveforms fit the server's waveform cache; the rest draw
// fresh seeds, which miss the session pool, synthesise waveforms, insert
// them into the cache and evict older entries.
const (
	simClients = 2
	// simHotFill is the hot set's waveform working set as a share of the
	// cache capacity. The rest is room for the fresh requests' waveforms:
	// between two uses of a hot entry the fresh requests insert about a
	// third of the hot set's request count times ~9 MB, and that must fit
	// in the free share or LRU evicts the hot set (thrash, hit rate 0).
	simHotFill = 0.35
	// simHotIn4 is how many requests in four reuse the hot set.
	simHotIn4           = 3
	simHotPkts          = 12 // hot requests keep to the lower half of the range
	simMinPkts          = 8
	simMaxPkts          = 32
	simVerifyFresh      = 4 // fresh replies per client checked against the library
	simEfficiencyPkts   = 16
	simEfficiencyRounds = 3
)

// simSpec is one /v1/simulate request.
type simSpec struct {
	radio int
	mode  core.ReceiverMode
	dist  float64
	seed  int64
	pkts  int
}

func (p simSpec) body() []byte {
	b, _ := json.Marshal(map[string]any{ // a map of strings and numbers always marshals
		"radio": radios[p.radio].key, "distance": p.dist, "packets": p.pkts,
		"seed": p.seed, "receiver": p.mode.String(),
	})
	return b
}

// library runs the request's link through Session.RunBatch with no cache:
// the server's reply must equal it exactly (serial ≡ parallel, cached ≡
// uncached).
func (p simSpec) library() (core.SessionResult, error) {
	cfg := freerider.DefaultConfig(radios[p.radio].radio, p.dist)
	cfg.Seed = p.seed
	cfg.ReceiverMode = p.mode
	sess, err := freerider.NewSession(cfg)
	if err != nil {
		return core.SessionResult{}, err
	}
	return sess.RunBatch(p.pkts, 0)
}

// freshSpec is fresh request k of a client: the radios, receiver modes,
// distances and packet counts come in a fixed rotation, so every run has
// the same composition; only the seed, drawn from the workload seed,
// changes the content.
func freshSpec(k int, seed int64) simSpec {
	p := simSpec{
		radio: k % len(radios),
		dist:  1,
		seed:  seed,
		pkts:  simMinPkts + (7*k)%(simMaxPkts-simMinPkts+1),
	}
	if (k/len(radios))%2 == 1 {
		p.mode = core.SingleReceiver
	}
	if (k/(2*len(radios)))%2 == 1 {
		p.dist = radios[p.radio].far
	}
	return p
}

type simReply struct {
	Result core.SessionResult `json:"result"`
}

type serveSimulate struct {
	seed       int64
	ls         *liveServer
	hot        []simSpec
	entryBytes []float64
	capBytes   int64
	workingSet float64
}

// setupServeSimulate starts the server, measures one cache entry per
// radio, sizes the hot set to simHotFill of the cache's capacity and
// warms it: each hot request runs once, filling the session pool and the
// waveform cache.
func setupServeSimulate(seed int64) (bench, error) {
	ls, err := startServer(simClients)
	if err != nil {
		return nil, err
	}
	s := &serveSimulate{seed: seed, ls: ls}
	if err := s.sizeHotSet(); err != nil {
		ls.close()
		return nil, err
	}
	for i, p := range s.hot {
		var rep simReply
		if err := ls.post(i%simClients, "client.simulate", "/v1/simulate", 0, p.body(), &rep); err != nil {
			ls.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *serveSimulate) sizeHotSet() error {
	prev, err := s.ls.metrics()
	if err != nil {
		return err
	}
	for i := range radios {
		p := simSpec{radio: i, dist: 1, seed: runner.DeriveSeed(s.seed, "perfbench.simulate.probe", i), pkts: 1}
		var rep simReply
		if err := s.ls.post(0, "client.simulate", "/v1/simulate", 0, p.body(), &rep); err != nil {
			return err
		}
		m, err := s.ls.metrics()
		if err != nil {
			return err
		}
		if m.WaveformCache.Entries != prev.WaveformCache.Entries+1 {
			return fmt.Errorf("probe for %s added %d cache entries, want 1", radios[i].key, m.WaveformCache.Entries-prev.WaveformCache.Entries)
		}
		s.entryBytes = append(s.entryBytes, float64(m.WaveformCache.Bytes-prev.WaveformCache.Bytes))
		s.capBytes = m.WaveformCache.CapacityBytes
		prev = m
	}
	// Waveforms are keyed by content — radio, seed and packet index —
	// not by distance or receiver mode, so each hot group is one content
	// seed asked for under two link configs (dual near, single far): the
	// session pool sees twice as many hot configs as the cache sees
	// working sets. Groups take the radios in turn.
	budget := simHotFill * float64(s.capBytes)
	for g := 0; ; g++ {
		ri := g % len(radios)
		b := float64(simHotPkts) * s.entryBytes[ri]
		if s.workingSet+b > budget {
			break
		}
		s.workingSet += b
		seed := runner.DeriveSeed(s.seed, "perfbench.simulate.hot", g)
		s.hot = append(s.hot,
			simSpec{radio: ri, mode: core.DualReceiver, dist: 1, seed: seed, pkts: simHotPkts},
			simSpec{radio: ri, mode: core.SingleReceiver, dist: radios[ri].far, seed: seed, pkts: simHotPkts})
	}
	if len(s.hot) < 2*len(radios) {
		return fmt.Errorf("hot set of %d requests does not cover every radio", len(s.hot))
	}
	return nil
}

func (s *serveSimulate) close() { s.ls.close() }

type simOp struct {
	spec  simSpec
	end   time.Duration // completion, from the start of the loop
	lat   time.Duration
	reply simReply
	err   error
}

// load runs the closed loop for dur and returns every operation.
func (s *serveSimulate) load(dur time.Duration, stream string) []simOp {
	start := time.Now()
	per := make([][]simOp, simClients)
	rngs := make([]*rand.Rand, simClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(runner.DeriveSeed(s.seed, stream, c)))
	}
	closedLoop(simClients, dur, func(c, seq int) {
		// Of every four requests a client sends, simHotIn4 cycle through
		// the hot set and the last is fresh.
		var p simSpec
		if seq%4 < simHotIn4 {
			p = s.hot[((seq-seq/4)*simClients+c)%len(s.hot)]
		} else {
			p = freshSpec((seq/4)*simClients+c, rngs[c].Int63())
		}
		t0 := time.Now()
		op := simOp{spec: p}
		op.err = s.ls.post(c, "client.simulate", "/v1/simulate", int64(c*1_000_000+seq+1), p.body(), &op.reply)
		op.lat = time.Since(t0)
		op.end = time.Since(start)
		per[c] = append(per[c], op)
	})
	var out []simOp
	for _, ops := range per {
		out = append(out, ops...)
	}
	return out
}

// verify checks a sample of replies against the library: the first reply
// to each hot request and the first simVerifyFresh fresh ones. A reply
// that differs marks its operation failed.
func (s *serveSimulate) verify(ops []simOp, r *report) {
	seen := map[simSpec]bool{}
	fresh := 0
	hot := map[simSpec]bool{}
	for _, p := range s.hot {
		hot[p] = true
	}
	for _, op := range ops {
		if op.err != nil || seen[op.spec] || (!hot[op.spec] && fresh >= simVerifyFresh*simClients) {
			continue
		}
		seen[op.spec] = true
		if !hot[op.spec] {
			fresh++
		}
		want, err := op.spec.library()
		if err != nil || want != op.reply.Result {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("simulate %+v: server %+v, library %+v (%v)", op.spec, op.reply.Result, want, err))
		}
	}
}

func (s *serveSimulate) run(dur time.Duration, tr *tracer, r *report) (runStats, error) {
	var before serverMetrics
	var err error
	if tr != nil {
		if before, err = s.ls.metrics(); err != nil {
			return runStats{}, err
		}
		s.ls.tr.Store(tr)
	}
	ops := s.load(dur, fmt.Sprintf("perfbench.simulate.clients.trace%v", tr != nil))
	s.ls.tr.Store(nil)

	wall := timeWindows(dur)
	var wops []windowOp
	var lat []float64
	var goodBits, air float64
	for _, op := range ops {
		r.op(op.err == nil, "simulate %+v: %v", op.spec, op.err)
		if op.err != nil {
			continue
		}
		wops = append(wops, windowOp{win: windowAt(op.end, len(wall)), radio: op.spec.radio, pkts: op.spec.pkts, lat: op.lat.Seconds()})
		lat = append(lat, op.lat.Seconds()*1e3)
		res := op.reply.Result
		goodBits += float64(res.TagBitsDecoded - res.BitErrors)
		air += res.ElapsedSeconds
	}
	s.verify(ops, r)
	if len(lat) == 0 {
		return runStats{}, errNoOps
	}
	st := runStats{meanOpMs: mean(lat), ops: len(lat)}
	if tr != nil {
		return st, s.layerMetrics(before, r)
	}
	m := summarize(wops, wall)
	addLatencyAndRates(r, m, m.radioRate)
	addTail(r, lat)
	r.add("pkts_per_s", m.pktRate, "1/s", m.pkts)
	r.add("max_rps", m.opRate, "1/s", m.ops)
	r.add("tag_goodput_kbps", goodBits/air/1e3, "kbps", m.pkts)
	r.add("simulate.hot_requests", float64(len(s.hot)), "count", len(s.hot))
	r.add("waveform.working_set_mb", s.workingSet/(1<<20), "MB", len(s.hot))
	r.add("waveform.capacity_mb", float64(s.capBytes)/(1<<20), "MB", 1)
	for i, ri := range radios {
		r.add("waveform.entry_kb."+ri.key, s.entryBytes[i]/1024, "KB", 1)
	}
	return st, nil
}

// layerMetrics reads the cache, pool and handler figures of the traced
// segment from /metrics and measures the runner's parallel efficiency.
func (s *serveSimulate) layerMetrics(before serverMetrics, r *report) error {
	after, err := s.ls.metrics()
	if err != nil {
		return err
	}
	sim := after.Endpoints["simulate"]
	nreq := float64(sim.Requests - before.Endpoints["simulate"].Requests)
	wa, wb := after.WaveformCache, before.WaveformCache
	lookups := wa.Hits + wa.Misses - wb.Hits - wb.Misses
	r.add("waveform.hit_rate", float64(wa.Hits-wb.Hits)/float64(lookups), "frac", int(lookups))
	r.add("waveform.evictions_per_req", float64(wa.Evictions-wb.Evictions)/nreq, "count", int(nreq))
	r.add("waveform.lock_wait_us_per_req", float64(after.lockWaitNs()-before.lockWaitNs())/nreq/1e3, "us", int(nreq))
	r.add("waveform.bytes_mb", float64(wa.Bytes)/(1<<20), "MB", int(wa.Entries))
	pa, pb := after.SessionPool, before.SessionPool
	gets := pa.Hits + pa.Misses - pb.Hits - pb.Misses
	r.add("server.pool_hit_rate", float64(pa.Hits-pb.Hits)/float64(gets), "frac", int(gets))
	r.add("server.pool_evictions_per_req", float64(pa.Evictions-pb.Evictions)/nreq, "count", int(nreq))
	r.add("server.simulate_handler_p50_ms", sim.Latency.P50Ms, "ms", int(sim.Latency.Count))
	eff, err := runnerEfficiency(s.hot[0])
	if err != nil {
		return err
	}
	r.add("runner.efficiency", eff, "ratio", simEfficiencyRounds)
	return nil
}

// runnerEfficiency is RunBatch time ÷ (RunParallel time × workers) for
// one representative request: 1 when the worker pool splits the packets
// perfectly, lower when dispatch or imbalance costs time.
func runnerEfficiency(p simSpec) (float64, error) {
	p.pkts = simEfficiencyPkts
	cfg := freerider.DefaultConfig(radios[p.radio].radio, p.dist)
	cfg.Seed = p.seed
	cfg.ReceiverMode = p.mode
	sess, err := freerider.NewSession(cfg)
	if err != nil {
		return 0, err
	}
	workers := runner.DefaultWorkers()
	var serial, parallel []float64
	for i := 0; i < simEfficiencyRounds; i++ {
		t0 := time.Now()
		if _, err := sess.RunBatch(p.pkts, 0); err != nil {
			return 0, err
		}
		t1 := time.Now()
		if _, err := sess.RunParallel(p.pkts, workers); err != nil {
			return 0, err
		}
		serial = append(serial, t1.Sub(t0).Seconds())
		parallel = append(parallel, time.Since(t1).Seconds())
	}
	return median(serial) / (median(parallel) * float64(workers)), nil
}
