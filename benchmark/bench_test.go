package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {25, 20}, {95, 48}, {100, 50}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestWindowsTileThePhase(t *testing.T) {
	// 12 successful operations completing every 10ms, latency 4ms, except
	// that the third window's operations take 8ms; one failure and two
	// trailing samples must not count.
	var samples []sample
	for i := 1; i <= 12; i++ {
		end := time.Duration(i) * 10 * time.Millisecond
		lat := 4 * time.Millisecond
		if i == 5 || i == 6 {
			lat = 8 * time.Millisecond
		}
		samples = append(samples, sample{start: end - lat, end: end, ok: true})
	}
	samples = append(samples, sample{start: 0, end: 15 * time.Millisecond, ok: false})
	ws := windows(samples)
	if len(ws) != nWindows {
		t.Fatalf("%d windows, want %d", len(ws), nWindows)
	}
	var total time.Duration
	for i, w := range ws {
		if w.ops != 2 || w.wall != 20*time.Millisecond || math.Abs(w.throughput-100) > 1e-9 {
			t.Errorf("window %d = %+v, want 2 ops in 20ms at 100 ops/s", i, w)
		}
		total += w.wall
	}
	if total != 100*time.Millisecond {
		t.Errorf("windows cover %v, want the 100ms up to the tenth completion", total)
	}
	p50 := windowValues(ws, func(w window) float64 { return w.p50 })
	if want := []float64{4, 4, 8, 4, 4}; !reflect.DeepEqual(p50, want) {
		t.Errorf("window p50s = %v, want %v", p50, want)
	}
	if m := median(p50); m != 4 {
		t.Errorf("median over windows = %v: one slow window must not move it", m)
	}
	if got := windows(samples[:4]); got != nil {
		t.Errorf("4 samples gave %d windows, want none", len(got))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},    // overlaps b
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},    // union with a: 50ms
		{Name: "c", Parent: 0, Start: 200 * ms, End: 220 * ms},  // re-executed after root ended: still counts
		{Name: "leaf", Parent: 1, Start: 10 * ms, End: 15 * ms}, // a's only child
		{Name: "big", Parent: 2, Start: 0, End: 90 * ms},        // longer than b: b clamps to zero
		{Name: "alone", Parent: -1, Start: 0, End: 7 * ms},      // no children: keeps everything
		{Name: "orphan", Parent: 99, Start: 0, End: 3 * ms},     // parent missing: ignored as a child
	}
	want := []time.Duration{30 * ms, 25 * ms, 0, 20 * ms, 5 * ms, 90 * ms, 7 * ms, 3 * ms}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		render := func(seed int64) []byte {
			in := &inputs{seed: seed}
			var buf bytes.Buffer
			for c := 0; c < nClients; c++ {
				for i := 0; i < 3*len(sp.cycle); i++ {
					o := makeOp(sp, in, c, i)
					buf.WriteString(o.kind + "\t" + o.sql + "\n")
				}
			}
			return buf.Bytes()
		}
		a, b, other := render(7), render(7), render(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different operation sequences", sp.name)
		}
		if len(sp.cycle) > 1 || sp.cycle[0] != opPredictAll {
			if bytes.Equal(a, other) {
				t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", sp.name)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricDef{"throughput_ops_s", "ops/s", "higher", 0.10}
	p50 := metricDef{"p50_ms", "ms", "lower", 0.10}
	for _, c := range []struct {
		m        metricDef
		a, b     float64
		sa, sb   float64
		want     string
		wantSign float64
	}{
		{thr, 100, 95, 0.02, 0.02, "ok", +1},          // 5% slower, inside the bound
		{thr, 100, 85, 0.02, 0.02, "worse", +1},       // 15% fewer ops/s
		{thr, 100, 130, 0.02, 0.02, "ok", -1},         // faster is never worse
		{p50, 10, 11.5, 0.02, 0.02, "worse", +1},      // 15% more latency
		{p50, 10, 8, 0.02, 0.02, "ok", -1},            // lower latency
		{p50, 10, 11.5, 0.30, 0.02, "unresolved", +1}, // windows wider than the bound
	} {
		change, word := verdict(c.m, c.a, c.b, c.sa, c.sb)
		if word != c.want || change*c.wantSign <= 0 {
			t.Errorf("verdict(%s, %v→%v) = %+.3f %s, want %s", c.m.name, c.a, c.b, change, word, c.want)
		}
	}

	mk := func(thr, p50 float64, failed int) map[string]*result {
		return map[string]*result{"mixed_rw": {
			Workload: "mixed_rw", Attempted: 100, Failed: failed,
			Metrics: map[string]value{"throughput_ops_s": {thr, "ops/s"}, "p50_ms": {p50, "ms"}, "setup_s": {1, "s"}},
			Spread:  map[string]float64{},
		}}
	}
	var out bytes.Buffer
	if code := compareResults(mk(100, 10, 0), mk(99, 10.1, 0), &out); code != 0 {
		t.Errorf("an unchanged pair exits %d:\n%s", code, out.String())
	}
	if code := compareResults(mk(100, 10, 0), mk(50, 10, 0), &out); code != 1 {
		t.Errorf("half the throughput exits %d", code)
	}
	if code := compareResults(mk(100, 10, 0), mk(100, 10, 1), &out); code != 1 {
		t.Errorf("a failed operation exits %d", code)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTheProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line reason", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program has %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, e := range m.EndToEnd {
		if got := (metricDef{e.Name, e.Unit, e.Better, e.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, got, endToEnd[i])
		}
	}
	for i, e := range m.PerLayer {
		if got := (metricDef{name: e.Name, unit: e.Unit, better: e.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, the program has %+v", i, got, perLayer[i])
		}
	}
}

// smoke runs the program in-process and returns its standard output.
func smoke(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-smoke", "-trace-out", filepath.Join(t.TempDir(), "trace.json")}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// TestSmoke runs all six workloads, untraced and traced, at a few
// operations each with every answer checked value by value.
func TestSmoke(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	goroutines := runtime.NumGoroutine()

	printed := make(map[string]int) // "workload metric" → lines
	for _, trace := range []string{"0", "1"} {
		for _, line := range strings.Split(smoke(t, "-trace", trace), "\n") {
			switch f := strings.Fields(line); {
			case strings.HasPrefix(line, "{"):
				var obj map[string]json.RawMessage
				if err := json.Unmarshal([]byte(line), &obj); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				if len(obj) != 4 || string(obj["correct"]) != "true" || string(obj["failed"]) != "0" ||
					string(obj["attempted"]) == "0" || obj["metrics"] == nil {
					t.Errorf("result line %q: want correct, attempted ≥ 1, failed 0 and metrics, nothing else", line)
				}
			case len(f) >= 4 && !strings.HasPrefix(line, "#"):
				printed[f[0]+" "+f[1]]++
			}
		}
	}
	m := readManifest(t)
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			if n := printed[w.Name+" "+e.Name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w.Name, e.Name, n)
			}
		}
		for _, e := range m.PerLayer {
			if n := printed[w.Name+" "+e.Name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w.Name, e.Name, n)
			}
		}
	}
	if want := len(m.Workloads) * (len(m.EndToEnd) + len(m.PerLayer)); len(printed) != want {
		t.Errorf("%d metric lines printed, BENCHMARK.json names %d", len(printed), want)
	}

	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("%d entries left in the temporary directory, first %s", len(left), left[0].Name())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestCountsRepeat holds the counts that must be identical between two runs
// of the same operation sequence to that: operations, rows inserted, WAL
// bytes, and the pinned/scatter split.
func TestCountsRepeat(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range []string{"mixed_rw", "shard_mix"} {
		var counts [2]map[string]int64
		for k := range counts {
			res, err := runWorkload(findSpec(name), config{seed: 3, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("%s: %d failed: %v", name, res.Failed, res.Failures)
			}
			counts[k] = res.Counts
		}
		if !reflect.DeepEqual(counts[0], counts[1]) {
			t.Errorf("%s: counts differ between two runs of one seed:\n%v\n%v", name, counts[0], counts[1])
		}
		if name == "mixed_rw" && (counts[0]["rows_inserted"] == 0 || counts[0]["wal_bytes"] == 0) {
			t.Errorf("mixed_rw wrote nothing: %v", counts[0])
		}
		if name == "shard_mix" && counts[0]["shard_pinned"] != 3*counts[0]["shard_scatter"] {
			t.Errorf("shard_mix pinned/scatter = %d/%d, want 3:1", counts[0]["shard_pinned"], counts[0]["shard_scatter"])
		}
	}
}

// A wrong answer must be a failed operation and a non-zero exit.
func TestWrongAnswerFails(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sp := findSpec("mixed_rw")
	in, err := generate(sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.ref[3][0] += 0.5 // the reference now disagrees with the system
	inst, err := boot(sp, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(sp, in, inst, true)
	r.drive(1, budget{ops: len(sp.cycle)}, nil, nil)
	r.closeClients()
	if err := inst.close(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || !strings.Contains(strings.Join(r.failures, "\n"), "prediction for id 3") {
		t.Errorf("%d failed of %d, failures %v; want exactly the PREDICT over row 3 to fail", r.failed, r.attempted, r.failures)
	}
}
