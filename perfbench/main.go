// Command perfbench is the repository benchmark: it runs one workload of
// the FreeRider reproduction for a fixed time and prints its end-to-end
// metrics, or, with -trace 1, the per-layer metrics of a traced run. See
// README.md in this directory for the workloads and metrics.
//
//	perfbench -workload sweep -seed 1 -seconds 50 -trace 0
//	perfbench -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// radioInfo names one excitation radio for metric names and the sweep
// grid. far is the distance of the sweep's lossy point, taken from the
// radio's Fig 10/12/13 distance grid.
type radioInfo struct {
	key    string
	radio  core.Radio
	shifts bool // the tag applies a channel shift (no shifter on Bluetooth)
	far    float64
}

var radios = []radioInfo{
	{"wifi", core.WiFi, true, 34},
	{"zigbee", core.ZigBee, true, 18},
	{"bluetooth", core.Bluetooth, false, 6},
}

func radioIndex(r core.Radio) int {
	for i, ri := range radios {
		if ri.radio == r {
			return i
		}
	}
	panic(fmt.Sprintf("perfbench: radio %v not in table", r))
}

// runStats is what a workload run reports back for the tracing-overhead
// comparison: its mean operation latency.
type runStats struct {
	meanOpMs float64
	ops      int
}

// bench is one workload after set-up. run measures for dur; with a nil
// tracer it adds the end-to-end metrics to r, with a tracer it records
// spans and adds the per-layer metrics its layers produce.
type bench interface {
	run(dur time.Duration, tr *tracer, r *report) (runStats, error)
	close()
}

type workload struct {
	name  string
	setup func(seed int64) (bench, error)
}

var workloads = []workload{
	{"sweep", setupSweep},
	{"serve_decode", setupServeDecode},
	{"serve_simulate", setupServeSimulate},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, serve_decode, serve_simulate, or all to run the three in turn")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 50, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", ".bench_build", "directory for span files and saved results")
	compare := fs.Bool("compare", false, "compare two saved results: perfbench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result files")
			return 2
		}
		a, err := loadRun(fs.Arg(0))
		if err == nil {
			var b savedRun
			if b, err = loadRun(fs.Arg(1)); err == nil {
				err = compareRuns(stdout, a, b)
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ws := workloads
	if *name != "all" {
		ws = nil
		if w, ok := findWorkload(*name); ok {
			ws = []workload{w}
		}
	}
	if ws == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s, or all), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	// With -workload all the result line carries every workload's
	// metrics, each name prefixed with its workload.
	var all report
	var names []declared
	for _, w := range ws {
		rep, declaredNames, err := runWorkload(w, *seed, *seconds, *trace == 1, *out, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if len(ws) == 1 {
			all, names = *rep, declaredNames
			break
		}
		all.attempted += rep.attempted
		all.failed += rep.failed
		for _, m := range rep.metrics {
			m.Name = w.name + "." + m.Name
			all.metrics = append(all.metrics, m)
		}
		for _, d := range declaredNames {
			names = append(names, declared{w.name + "." + d.name, d.unit})
		}
	}
	line, err := resultLine(&all, names)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if all.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload measures one workload, prints its environment line and
// table, saves its result and returns it with the metric names its
// result line must carry.
func runWorkload(w workload, seed int64, seconds int, trace bool, out string, stdout io.Writer) (*report, []declared, error) {
	env := currentEnvironment(w.name, seed, seconds, trace)
	envJSON, _ := json.Marshal(env) // plain strings and numbers always marshal
	fmt.Fprintf(stdout, "# env %s\n", envJSON)

	dur := time.Duration(seconds) * time.Second
	rep := &report{}
	names := endToEndMetrics
	var err error
	if trace {
		names = perLayerMetrics
		err = measureLayers(w, seed, dur, out, rep, stdout)
	} else {
		err = measureEndToEnd(w, seed, dur, rep)
	}
	if err != nil {
		return nil, nil, err
	}
	printTable(stdout, fmt.Sprintf("%s seed=%d trace=%d: %d attempted, %d succeeded, %d failed",
		w.name, seed, btoi(trace), rep.attempted, rep.attempted-rep.failed, rep.failed), rep.metrics)
	for _, f := range rep.failures {
		fmt.Fprintln(stdout, "  FAILED:", f)
	}
	if err := saveRun(out, env, rep); err != nil {
		return nil, nil, fmt.Errorf("saving result: %w", err)
	}
	return rep, names, nil
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// measureEndToEnd sets the workload up setupReps times (keeping the last),
// then measures it untraced for dur.
func measureEndToEnd(w workload, seed int64, dur time.Duration, rep *report) error {
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(seed); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	sampler := startRSSSampler(50 * time.Millisecond)
	_, err := b.run(dur, nil, rep)
	samples, serr := sampler.finish()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	rep.add("setup_s", median(setups), "s", len(setups))
	peak, err := rssPeakMB()
	if err != nil {
		return err
	}
	rep.add("rss_p90_mb", percentile(samples, 0.9), "MB", len(samples))
	rep.add("rss_peak_mb", peak, "MB", 1)
	return nil
}

// measureLayers is the traced run. The named workload runs untraced for a
// third of dur and traced for another third; every workload then runs a
// shorter traced segment, so each per-layer metric is measured from
// traced traffic in every run, and the kernel probes run last. The spans
// are written to <out>/spans-<workload>-seed<seed>.jsonl.
func measureLayers(w workload, seed int64, dur time.Duration, out string, rep *report, stdout io.Writer) error {
	tr := newTracer()
	for _, seg := range workloads {
		if err := traceSegment(seg, seg.name == w.name, seed, dur, tr, rep); err != nil {
			return err
		}
	}
	if err := kernelProbes(seed, rep); err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# spans %d written to %s\n", tr.count(), path)
	sort.SliceStable(rep.metrics, func(i, j int) bool { return rep.metrics[i].Name < rep.metrics[j].Name })
	return nil
}

// traceSegment sets seg up and runs its part of the traced run: for the
// named workload an untraced third of dur, for the overhead baseline, then
// a traced third; for the others a traced ninth.
func traceSegment(seg workload, named bool, seed int64, dur time.Duration, tr *tracer, rep *report) error {
	b, err := seg.setup(seed)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", seg.name, err)
	}
	defer b.close()
	if !named {
		_, err := b.run(dur/9, tr, rep)
		return err
	}
	var plain report
	base, err := b.run(dur/3, nil, &plain)
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	rep.failures = append(rep.failures, plain.failures...)
	if err != nil {
		return err
	}
	traced, err := b.run(dur/3, tr, rep)
	if err != nil {
		return err
	}
	rep.add("trace.overhead_ratio", traced.meanOpMs/base.meanOpMs, "x", traced.ops)
	return nil
}

func saveRun(out string, env environment, rep *report) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedRun{Env: env, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, btoi(env.Trace)))
	return os.WriteFile(path, b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// errNoOps is returned by a workload run that completed no operation.
var errNoOps = errors.New("no operation completed")
