package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	freerider "repro"

	"repro/internal/core"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if beyond := c.n - rank(c.n, got/100); got > 50 && beyond < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeWithOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},    // nested in a
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 130},   // runs past root
		{ID: 6, Parent: 1, Name: "e", Start: 45, End: 50},    // inside b's interval
		{ID: 7, Parent: 0, Name: "other", Start: 0, End: 10}, // unrelated root
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (60 - 10) - (100 - 90), // union of a, b, e is [10,60]; d clipped to [90,100]
		2: 30 - 5,
		3: 30,
		4: 5,
		5: 40,
		6: 5,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	lt := aggregateSelf(spans)
	if us, n, err := lt.meanSelfUs("root"); err != nil || n != 1 || us != 40.0/1e3 {
		t.Errorf("meanSelfUs(root) = %g, %d, %v", us, n, err)
	}
	if _, _, err := lt.meanSelfUs("missing"); err == nil {
		t.Error("meanSelfUs of an unrecorded layer should fail")
	}
}

func TestTracerParentsAndNilTracer(t *testing.T) {
	var nilTr *tracer
	if id := nilTr.begin("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	nilTr.end(0)
	tr := newTracer()
	root := tr.begin("root", 0, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	ss := tr.since(0)
	if len(ss) != 2 || ss[1].Parent != root || ss[1].Req != 7 || ss[0].End < ss[1].End {
		t.Fatalf("spans = %+v", ss)
	}
	if got := tr.since(1); len(got) != 1 || got[0].Name != "child" {
		t.Fatalf("since(1) = %+v", got)
	}
}

func TestOpenLoopCountsFromDueTimeAndReportsLateness(t *testing.T) {
	// One connection, a request due every 2 ms, each taking 10 ms: the
	// generator falls behind, and every request's latency includes the
	// wait behind its predecessors.
	const n = 8
	due := fixedSchedule(500, n*2*time.Millisecond)
	if len(due) != n || due[1] != 2*time.Millisecond {
		t.Fatalf("schedule = %v", due)
	}
	ss := openLoop(time.Now(), due, 1, func(_, _ int) bool {
		time.Sleep(10 * time.Millisecond)
		return true
	})
	for i, s := range ss {
		if s.latency() < s.late()+10*time.Millisecond {
			t.Errorf("request %d: latency %v does not include lateness %v plus service", i, s.latency(), s.late())
		}
		if s.latency() != s.done-s.due {
			t.Errorf("request %d: latency not counted from the due time", i)
		}
	}
	if last := ss[n-1].late(); last < 50*time.Millisecond {
		t.Errorf("last request only %v late; want the backlog to show", last)
	}
	// A generator that keeps up is late only by its own wake-up jitter,
	// which stays far below the backlog above.
	fast := openLoop(time.Now(), fixedSchedule(200, 50*time.Millisecond), 2, func(_, _ int) bool { return true })
	for i, s := range fast {
		if s.late() > 20*time.Millisecond {
			t.Errorf("idle server: request %d sent %v late", i, s.late())
		}
	}
}

func TestDecodeGeneratorIsDeterministicAndCorrect(t *testing.T) {
	a, err := genDecodeCases(5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genDecodeCases(5)
	c, _ := genDecodeCases(6)
	same, coded, single := true, 0, 0
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) || a[i].want != b[i].want {
			t.Fatalf("case %d differs between two generations with one seed", i)
		}
		same = same && bytes.Equal(a[i].body, c[i].body)
		if a[i].coded {
			coded++
		}
		if a[i].lib.Single {
			single++
		}
	}
	if same {
		t.Error("seeds 5 and 6 generated the same requests")
	}
	if coded < len(a)/8 || single < len(a)/4 {
		t.Errorf("mix has %d coded and %d single-mode of %d requests", coded, single, len(a))
	}
	// The expected answers are what the library decodes from the streams.
	reqs := make([]freerider.DecodeRequest, len(a))
	for i := range a {
		reqs[i] = a[i].lib
	}
	for i, res := range freerider.DecodeBatch(reqs, 1) {
		if res.Err != nil {
			t.Fatalf("case %d: %v", i, res.Err)
		}
		got := bitString(freerider.DecisionBits(res.Windows))
		if a[i].coded {
			data, _, ok := a[i].lay.DecodeBits(freerider.DecisionBits(res.Windows))
			if !ok {
				t.Fatalf("case %d: RS decode failed on a clean stream", i)
			}
			got = bitString(data)
		}
		if got != a[i].want {
			t.Fatalf("case %d: library decodes %q, generator expects %q", i, got, a[i].want)
		}
	}
	var rep decodeReply
	rep.TagBits = a[0].want + "0"
	if a[0].check(rep) == nil && !a[0].coded {
		t.Error("check accepted a reply with an extra bit")
	}
}

func TestFreshSimulateSpecsRotate(t *testing.T) {
	radioN, singleN, farN := map[int]int{}, 0, 0
	const n = 24
	for k := 0; k < n; k++ {
		p := freshSpec(k, int64(k))
		if p != freshSpec(k, int64(k)) {
			t.Fatalf("spec %d not deterministic", k)
		}
		if p.pkts < simMinPkts || p.pkts > simMaxPkts {
			t.Fatalf("spec %d asks for %d packets", k, p.pkts)
		}
		radioN[p.radio]++
		if p.mode == core.SingleReceiver {
			singleN++
		}
		if p.dist != 1 {
			farN++
		}
	}
	for ri, c := range radioN {
		if c != n/len(radios) {
			t.Errorf("radio %d: %d of %d fresh requests", ri, c, n)
		}
	}
	if singleN != n/2 || farN != n/2 {
		t.Errorf("%d single-mode and %d far of %d", singleN, farN, n)
	}
}

func TestSweepDigestRepeatsForASeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep grid twice")
	}
	digest := func(seed int64) string {
		b, err := setupSweep(seed)
		if err != nil {
			t.Fatal(err)
		}
		var r report
		if _, err := b.run(0, nil, &r); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("seed %d: %d failed: %v", seed, r.failed, r.failures)
		}
		return b.(*sweep).digest()
	}
	if a, b := digest(3), digest(3); a != b {
		t.Errorf("same seed, digests %s and %s", a, b)
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []declared) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
	// BENCHMARK.json may list a subset: serve_simulate is left out there
	// (see README.md) but still runs as a traced segment.
	for _, w := range bj.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the code", w.Name)
		}
	}
}

func TestResultLineCarriesEveryDeclaredMetric(t *testing.T) {
	names := []declared{{"a_ms", "ms"}, {"b", "count"}}
	r := &report{}
	r.op(true, "")
	r.add("a_ms", 1.5, "ms", 3)
	if _, err := resultLine(r, names); err == nil || !strings.Contains(err.Error(), "b") {
		t.Fatalf("missing metric not reported: %v", err)
	}
	r.add("b", 2, "count", 1)
	r.add("extra", 9, "x", 1) // measured for people, not declared
	line, err := resultLine(r, names)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || string(got["correct"]) != "true" || string(got["attempted"]) != "1" || string(got["failed"]) != "0" {
		t.Fatalf("result line %s", line)
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &ms); err != nil || len(ms) != 2 || ms["a_ms"].Value != 1.5 {
		t.Fatalf("metrics %s (%v)", got["metrics"], err)
	}
	r.op(false, "broken %d", 1)
	line, _ = resultLine(r, names)
	if !strings.Contains(string(line), `"correct":false`) {
		t.Fatalf("a failed operation must make the run incorrect: %s", line)
	}
	if _, err := resultLine(&report{metrics: []metric{{Name: "a_ms", Unit: "s"}, {Name: "b", Unit: "count"}}}, names); err == nil {
		t.Fatal("unit mismatch not reported")
	}
}

func TestCompareRefusesDifferentDispatch(t *testing.T) {
	a := savedRun{Env: environment{Workload: "sweep", Dispatch: "avx2"}, Metrics: []metric{{Name: "p50_ms", Value: 2, Unit: "ms"}}}
	b := a
	b.Env.Dispatch = "go"
	var out bytes.Buffer
	if err := compareRuns(&out, a, b); err == nil || !strings.Contains(err.Error(), "dispatch") {
		t.Fatalf("compare across dispatch paths: %v", err)
	}
	b.Env.Dispatch = "avx2"
	b.Metrics = []metric{{Name: "p50_ms", Value: 3, Unit: "ms"}}
	if err := compareRuns(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1.500") {
		t.Fatalf("ratio missing from %q", out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errs); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if code := run([]string{"-workload", "sweep", "-trace", "2"}, &out, &errs); code == 0 {
		t.Fatal("trace 2 accepted")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatal("a rejected run printed a result line")
	}
}
