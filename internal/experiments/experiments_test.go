package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	return Config{Quick: true, Dir: t.TempDir(), Seed: 7}
}

func find(t *testing.T, rows []Row, workload, system string, batch int) Row {
	t.Helper()
	for _, r := range rows {
		if r.Workload == workload && r.System == system && (batch == 0 || r.Batch == batch) {
			return r
		}
	}
	t.Fatalf("no row for %s/%s batch %d in:\n%s", workload, system, batch, Format(rows))
	return Row{}
}

func TestFig2ShapeInDBFasterThanDLCentric(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are not meaningful under the race detector")
	}
	rows, err := Fig2(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 models × 3 systems
		t.Fatalf("got %d rows:\n%s", len(rows), Format(rows))
	}
	for _, model := range []string{"Fraud-FC-256", "Fraud-FC-512", "Encoder-FC"} {
		ours := find(t, rows, model, "ours(in-db)", 0)
		graph := find(t, rows, model, "dl-centric(graph)", 0)
		eager := find(t, rows, model, "dl-centric(eager)", 0)
		if ours.Status != "OK" || graph.Status != "OK" || eager.Status != "OK" {
			t.Fatalf("unexpected status:\n%s", Format(rows))
		}
		if model == "Encoder-FC" {
			// Encoder-FC is compute-bound; with shared kernels the gap
			// narrows to the transfer cost, so only require that the
			// in-db path is not meaningfully slower.
			limit := graph.Latency + graph.Latency/5
			if ours.Latency > limit {
				t.Errorf("%s: ours %v more than 20%% slower than graph %v", model, ours.Latency, graph.Latency)
			}
			continue
		}
		// The paper's Fig. 2 shape: in-database serving is faster for
		// small models because cross-system transfer dominates.
		if ours.Latency >= graph.Latency || ours.Latency >= eager.Latency {
			t.Errorf("%s: ours %v not faster than graph %v / eager %v",
				model, ours.Latency, graph.Latency, eager.Latency)
		}
	}
}

func TestFig3ShapeInDBFasterThanDLCentric(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are not meaningful under the race detector")
	}
	rows, err := Fig3(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows:\n%s", len(rows), Format(rows))
	}
	ours := find(t, rows, "DeepBench-CONV1", "ours(in-db)", 0)
	for _, system := range []string{"dl-centric(graph)", "dl-centric(eager)"} {
		dl := find(t, rows, "DeepBench-CONV1", system, 0)
		if ours.Latency >= dl.Latency {
			t.Errorf("ours %v not faster than %s %v", ours.Latency, system, dl.Latency)
		}
	}
}

// The paper's Table 3 latency orderings among systems that complete, where
// they hold at quick scale: whole-tensor execution beats the
// relation-centric plan when it fits — the external runtimes at
// Amazon-14k-FC's small batch (paper 34.6 s and 22.6 s vs 58.6 s) and the
// graph runtime at LandCover batch 1 (paper 9.9 s vs 36.8 s). Each held by
// 2.8× or more in quick runs; the paper's ours-before-UDF-centric ordering
// at Amazon does not hold here (EXPERIMENTS.md, deviations).
func TestTable3LatencyOrderings(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are not meaningful under the race detector")
	}
	rows, err := Table3(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		batch    int
		faster   string
	}{
		{"Amazon-14k-FC", 100, "dl-centric(graph)"},
		{"Amazon-14k-FC", 100, "dl-centric(eager)"},
		{"LandCover", 1, "dl-centric(graph)"},
	} {
		ours := find(t, rows, c.workload, "ours(adaptive)", c.batch)
		other := find(t, rows, c.workload, c.faster, c.batch)
		if ours.Status != "OK" || other.Status != "OK" {
			t.Fatalf("%s batch %d: unexpected status:\n%s", c.workload, c.batch, Format(rows))
		}
		if other.Latency >= ours.Latency {
			t.Errorf("%s batch %d: %s %v not faster than ours %v", c.workload, c.batch, c.faster, other.Latency, ours.Latency)
		}
	}
}

func TestTable3OOMPattern(t *testing.T) {
	rows, err := Table3(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table 3 (small batch = 100/1, large batch = 800/2 scaled):
	//   Amazon small: everyone completes.
	//   Amazon large: only the relation-centric plan completes.
	//   LandCover small: ours and the graph runtime complete; the
	//     UDF-centric path and the eager runtime OOM.
	//   LandCover large: only ours completes.
	type want struct {
		workload string
		batch    int
		system   string
		status   string
	}
	wants := []want{
		{"Amazon-14k-FC", 100, "ours(adaptive)", "OK"},
		{"Amazon-14k-FC", 100, "udf-centric", "OK"},
		{"Amazon-14k-FC", 100, "dl-centric(graph)", "OK"},
		{"Amazon-14k-FC", 100, "dl-centric(eager)", "OK"},
		{"Amazon-14k-FC", 800, "ours(adaptive)", "OK"},
		{"Amazon-14k-FC", 800, "udf-centric", "OOM"},
		{"Amazon-14k-FC", 800, "dl-centric(graph)", "OOM"},
		{"Amazon-14k-FC", 800, "dl-centric(eager)", "OOM"},
		{"LandCover", 1, "ours(adaptive)", "OK"},
		{"LandCover", 1, "udf-centric", "OOM"},
		{"LandCover", 1, "dl-centric(graph)", "OK"},
		{"LandCover", 1, "dl-centric(eager)", "OOM"},
		{"LandCover", 2, "ours(adaptive)", "OK"},
		{"LandCover", 2, "udf-centric", "OOM"},
		{"LandCover", 2, "dl-centric(graph)", "OOM"},
		{"LandCover", 2, "dl-centric(eager)", "OOM"},
	}
	for _, w := range wants {
		r := find(t, rows, w.workload, w.system, w.batch)
		if r.Status != w.status {
			t.Errorf("%s/%s batch %d: status %s, want %s", w.workload, w.system, w.batch, r.Status, w.status)
		}
	}
	if t.Failed() {
		t.Logf("full table:\n%s", Format(rows))
	}
}

func TestPushdownSpeedupAndEquivalence(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are not meaningful under the race detector")
	}
	rows, err := Pushdown(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows:\n%s", Format(rows))
	}
	naive, pd := rows[0], rows[1]
	if naive.Batch != pd.Batch {
		t.Fatalf("result row counts differ: %d vs %d", naive.Batch, pd.Batch)
	}
	if naive.Batch == 0 {
		t.Fatal("join produced no rows")
	}
	// The paper's 5.7× comes from a large workload; at quick scale the
	// shape requirement is a clear speedup.
	if pd.Latency*3/2 >= naive.Latency {
		t.Errorf("pushdown %v not at least 1.5x faster than naive %v", pd.Latency, naive.Latency)
	}
}

func TestCacheExpSpeedupAndAccuracyDrop(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-shape assertions are not meaningful under the race detector")
	}
	rows, err := CacheExp(quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows:\n%s", Format(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		full, cached := rows[i], rows[i+1]
		if full.System != "full-inference" || cached.System != "hnsw-cache" {
			t.Fatalf("unexpected systems:\n%s", Format(rows))
		}
		// Sec. 7.2.2 shape: the cache is faster and trades away some
		// accuracy (the paper loses ~5 points), but does not collapse.
		if cached.Latency >= full.Latency {
			t.Errorf("%s: cache %v not faster than full %v", full.Workload, cached.Latency, full.Latency)
		}
		fullAcc := parseAccuracy(t, full.Note)
		cachedAcc := parseAccuracy(t, cached.Note)
		if fullAcc < 90 {
			t.Errorf("%s: full accuracy %.1f%% too low, model underfit", full.Workload, fullAcc)
		}
		drop := fullAcc - cachedAcc
		if drop < 1 || drop > 30 {
			t.Errorf("%s: accuracy drop %.1f points outside the expected band (paper: ~5)", full.Workload, drop)
		}
		if !strings.Contains(cached.Note, "speedup") {
			t.Errorf("cache note missing speedup: %q", cached.Note)
		}
		// The SLA-gated policy's verdict follows its agreement estimate.
		i := strings.Index(cached.Note, "agreement ")
		if i < 0 {
			t.Fatalf("cache note missing the SLA agreement: %q", cached.Note)
		}
		var agree, floor float64
		if _, err := fmt.Sscanf(cached.Note[i:], "agreement %f%% vs SLA %f%%:", &agree, &floor); err != nil {
			t.Fatalf("cache note %q: %v", cached.Note, err)
		}
		want := "serve full inference"
		if agree >= floor {
			want = "use cache"
		}
		if !strings.HasSuffix(cached.Note, ": "+want) {
			t.Errorf("%s: agreement %.1f%% vs SLA %.0f%%, want verdict %q: %q", full.Workload, agree, floor, want, cached.Note)
		}
	}
}

func parseAccuracy(t *testing.T, note string) float64 {
	t.Helper()
	var acc float64
	i := strings.Index(note, "accuracy ")
	if i < 0 {
		t.Fatalf("note %q missing accuracy", note)
	}
	if _, err := fmt.Sscanf(note[i:], "accuracy %f%%", &acc); err != nil {
		t.Fatalf("cannot parse accuracy from %q: %v", note, err)
	}
	return acc
}

func TestModelZooPrintsPaperTables(t *testing.T) {
	s, err := ModelZoo(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fraud-FC-256", "Fraud-FC-512", "Encoder-FC", "Amazon-14k-FC", "DeepBench-CONV1", "LandCover", "Table 1", "Table 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("zoo output missing %q:\n%s", want, s)
		}
	}
}

func TestFormatRendersOOM(t *testing.T) {
	s := Format([]Row{
		{Exp: "x", Workload: "w", System: "s", Batch: 1, Latency: time.Second, Status: "OK"},
		{Exp: "x", Workload: "w", System: "s2", Batch: 1, Status: "OOM"},
	})
	if !strings.Contains(s, "OOM") || !strings.Contains(s, "1s") {
		t.Fatalf("format:\n%s", s)
	}
}
