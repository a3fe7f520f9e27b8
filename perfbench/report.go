package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/simd"
)

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json
// declares, with their units. Every run prints each of its list in the
// result line; anything else a workload measures is printed for people
// only. TestDeclaredMetricsMatchBenchmarkJSON keeps the two in step.
var endToEndMetrics = []declared{
	{"wifi_pkts_per_s", "1/s"},
	{"zigbee_pkts_per_s", "1/s"},
	{"bluetooth_pkts_per_s", "1/s"},
	{"tag_goodput_kbps", "kbps"},
	{"p50_ms", "ms"},
	{"max_rps", "1/s"},
	{"pkts_per_s", "1/s"},
	{"setup_s", "s"},
	{"rss_p90_mb", "MB"},
}

var perLayerMetrics = func() []declared {
	var out []declared
	for _, r := range radios {
		k := r.key
		out = append(out,
			declared{k + ".tx_us", "us"},
			declared{"tag.translate_us." + k, "us"},
		)
		if r.shifts {
			out = append(out, declared{"tag.shift_us." + k, "us"})
		}
		out = append(out,
			declared{"channel.apply_us." + k, "us"},
			declared{"channel.samples_per_pkt." + k, "count"},
			declared{k + ".rx_us", "us"},
			declared{"decoder.windows_us." + k, "us"},
			declared{"decoder.differential_us." + k, "us"},
			declared{"core.packet_us." + k, "us"},
			declared{"core.allocs_per_pkt." + k, "count"},
			declared{"core.loss_frac." + k, "frac"},
			declared{"core.stage_coverage." + k, "ratio"},
		)
	}
	return append(out,
		declared{"wifi.detect_us", "us"},
		declared{"wifi.viterbi_us", "us"},
		declared{"zigbee.detect_us", "us"},
		declared{"bluetooth.demod_us", "us"},
		declared{"signal.fft64_ns", "ns"},
		declared{"signal.convolve129_us", "us"},
		declared{"fec.decode_us", "us"},
		declared{"decoder.batch_us_per_req", "us"},
		declared{"server.decode_handler_p50_ms", "ms"},
		declared{"server.batch_mean", "count"},
		declared{"server.transport_p50_ms", "ms"},
		declared{"server.simulate_handler_p50_ms", "ms"},
		declared{"server.pool_hit_rate", "frac"},
		declared{"server.pool_evictions_per_req", "count"},
		declared{"waveform.hit_rate", "frac"},
		declared{"waveform.evictions_per_req", "count"},
		declared{"waveform.bytes_mb", "MB"},
		declared{"runner.efficiency", "ratio"},
		declared{"loadgen.late_p99_ms", "ms"},
		declared{"trace.overhead_ratio", "x"},
	)
}()

type declared struct{ name, unit string }

// metric is one measured figure. N is the number of samples behind it
// (operations, packets, spans or repetitions).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

// report collects one run's figures and its operation counts. A failure
// is an operation that errored, was answered with a non-2xx status, or
// failed an output check; failures lists why, for the log.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// op counts one attempted operation and, when it failed, why.
func (r *report) op(ok bool, why string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(why, args...))
		}
	}
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// environment is recorded with every run: two runs are comparable only
// when they ran the same kernels (dispatch) on the same kind of machine.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Dispatch   string `json:"dispatch"`
	NoSIMDEnv  string `json:"nosimd_env"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

func currentEnvironment(workload string, seed int64, seconds int, trace bool) environment {
	return environment{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Dispatch:   simd.Mode(),
		NoSIMDEnv:  os.Getenv(simd.NoSIMDEnv),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
	}
}

// savedRun is the file each run leaves in <out>/results for later
// comparison.
type savedRun struct {
	Env       environment `json:"env"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Metrics   []metric    `json:"metrics"`
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// rssMB reads the process's current resident set size from
// /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20), nil
}

// rssSampler reads the resident set size every interval until finish.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			mb, err := rssMB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mb)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples.
func (s *rssSampler) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.samples, s.err
}

// printTable writes every metric for people: name, value, unit, samples.
func printTable(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
}

// resultLine builds the final JSON line from the declared metric list.
// A declared metric the run did not measure is an error: the line must
// carry every one.
func resultLine(r *report, names []declared) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	var missing []string
	for _, d := range names {
		m, ok := r.get(d.name)
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		ms[d.name] = val{m.Value, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
}

// compareRuns prints the ratio of each metric of run b to run a. It
// refuses runs whose SIMD dispatch, workload or trace mode differ: their
// figures come from different code paths and do not compare.
func compareRuns(w io.Writer, a, b savedRun) error {
	if a.Env.Dispatch != b.Env.Dispatch {
		return fmt.Errorf("refusing to compare: dispatch %q vs %q", a.Env.Dispatch, b.Env.Dispatch)
	}
	if a.Env.Workload != b.Env.Workload || a.Env.Trace != b.Env.Trace {
		return fmt.Errorf("refusing to compare: %s (trace %v) vs %s (trace %v)",
			a.Env.Workload, a.Env.Trace, b.Env.Workload, b.Env.Trace)
	}
	byName := map[string]metric{}
	for _, m := range a.Metrics {
		byName[m.Name] = m
	}
	fmt.Fprintf(w, "%-34s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, m := range b.Metrics {
		old, ok := byName[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %14.4f %14.4f %8.3f %s\n", m.Name, old.Value, m.Value, m.Value/old.Value, m.Unit)
	}
	return nil
}

func loadRun(path string) (savedRun, error) {
	var s savedRun
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
