package exec

import (
	"strings"
	"testing"
	"time"

	"tensorbase/internal/table"
)

// slowCloseOp does its real work in Close — the shape of an operator whose
// teardown (spill cleanup, unpin storm) used to be invisible in profiles.
type slowCloseOp struct {
	in    Operator
	delay time.Duration
}

func (o *slowCloseOp) Schema() *table.Schema { return o.in.Schema() }
func (o *slowCloseOp) Open() error           { return o.in.Open() }
func (o *slowCloseOp) Next() (table.Tuple, bool, error) {
	return o.in.Next()
}
func (o *slowCloseOp) Close() error {
	time.Sleep(o.delay)
	return o.in.Close()
}

// TestInstrumentedTimesClose is the regression test for the profiling bug
// where Instrumented.Close was never measured: Close-side work must show up
// in both Elapsed and CloseElapsed.
func TestInstrumentedTimesClose(t *testing.T) {
	const delay = 5 * time.Millisecond
	s := intsSchema()
	rows := []table.Tuple{{table.IntVal(1), table.FloatVal(1)}}
	ins := Instrument("slow", &slowCloseOp{in: NewMemScan(s, rows), delay: delay})
	if _, err := Collect(ins); err != nil {
		t.Fatal(err)
	}
	if ins.CloseElapsed() < delay {
		t.Fatalf("CloseElapsed = %v, want ≥ %v (Close not timed)", ins.CloseElapsed(), delay)
	}
	if ins.Elapsed() < ins.CloseElapsed() {
		t.Fatalf("Elapsed %v excludes Close time %v", ins.Elapsed(), ins.CloseElapsed())
	}
	st := ins.Stat()
	if st.CloseElapsed != ins.CloseElapsed() || st.Elapsed != ins.Elapsed() {
		t.Fatalf("StageStat timing mismatch: %+v", st)
	}
}

// TestInstrumentedDoubleCloseCountsOnce guards the idempotence of the
// timing window: a second Close must not inflate the stats.
func TestInstrumentedDoubleCloseCountsOnce(t *testing.T) {
	s := intsSchema()
	ins := Instrument("m", &slowCloseOp{in: NewMemScan(s, nil), delay: time.Millisecond})
	if _, err := Collect(ins); err != nil {
		t.Fatal(err)
	}
	first := ins.CloseElapsed()
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	if ins.CloseElapsed() != first {
		t.Fatalf("second Close changed CloseElapsed: %v -> %v", first, ins.CloseElapsed())
	}
}

// TestProfiledExternalSortIncludesCloseAndSpill profiles an external sort
// end-to-end: the span must carry non-zero Close time, spill volume, and
// pool fetch deltas.
func TestProfiledExternalSortIncludesCloseAndSpill(t *testing.T) {
	pool, _ := sortPool(t, 8)
	s := intsSchema()
	var in []table.Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, table.Tuple{table.IntVal(int64(2000 - i)), table.FloatVal(float64(i))})
	}
	ext, err := NewSort(NewMemScan(s, in), "id", false, -1, pool)
	if err != nil {
		t.Fatal(err)
	}
	ext.RunRows = 128 // force multiple spill runs
	ins := Instrument("sort", ext).WithPool(pool)
	rows, err := Collect(ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(in) {
		t.Fatalf("rows = %d", len(rows))
	}
	stats := Profile([]*Instrumented{ins})
	st := stats[0]
	if st.CloseElapsed <= 0 {
		t.Fatalf("external sort Close time = %v, must be non-zero and included", st.CloseElapsed)
	}
	if st.Elapsed < st.CloseElapsed {
		t.Fatalf("Elapsed %v excludes Close time %v", st.Elapsed, st.CloseElapsed)
	}
	if st.SpillRuns < 2 || st.SpillBytes <= 0 {
		t.Fatalf("spill stats not reported: runs=%d bytes=%d", st.SpillRuns, st.SpillBytes)
	}
	if st.PagesFetched == 0 {
		t.Fatalf("pool fetches not attributed: %+v", st)
	}
	out := FormatProfile(stats)
	for _, want := range []string{"close", "spill=", "pages="} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFormatProfileTree(t *testing.T) {
	stats := []StageStat{
		{Name: "limit", Rows: 10, Elapsed: 3 * time.Millisecond, Depth: 0},
		{Name: "sort", Rows: 10, Elapsed: 2 * time.Millisecond, Depth: 1, SpillBytes: 65536, SpillRuns: 2},
		{Name: "scan", Rows: 100, Elapsed: time.Millisecond, Depth: 2},
	}
	out := FormatProfile(stats)
	if !strings.Contains(out, "└─sort") || !strings.Contains(out, "  └─scan") {
		t.Fatalf("tree rendering missing nesting:\n%s", out)
	}
	sum := SummarizeProfile(stats)
	if !strings.Contains(sum, "limit 10r") || !strings.Contains(sum, "->") {
		t.Fatalf("summary = %q", sum)
	}
	if SummarizeProfile(nil) != "" {
		t.Fatal("empty profile must summarize to empty string")
	}
}
