package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

func sortPool(t *testing.T, frames int) (*storage.BufferPool, *storage.DiskManager) {
	t.Helper()
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "sort.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return storage.NewBufferPool(d, frames), d
}

// tieSchema has one key column of each sortable type, all drawn from a
// few values so ties are the rule, and a unique seq that tells tied tuples
// apart.
func tieSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "k", Type: table.Int64},
		table.Column{Name: "f", Type: table.Float64},
		table.Column{Name: "s", Type: table.Text},
		table.Column{Name: "seq", Type: table.Int64},
	)
}

func tieRows(rng *rand.Rand, n int) []table.Tuple {
	in := make([]table.Tuple, n)
	for i := range in {
		in[i] = table.Tuple{
			table.IntVal(int64(rng.Intn(3))),
			table.FloatVal(float64(rng.Intn(4)) / 2),
			table.TextVal(string(rune('a' + rng.Intn(3)))),
			table.IntVal(int64(i)),
		}
	}
	return in
}

// stableOrder is the reference: a stable sort of a copy of in, then LIMIT.
func stableOrder(t *testing.T, s *table.Schema, in []table.Tuple, col string, desc bool, limit int) []table.Tuple {
	t.Helper()
	less, err := orderLess(s, col, desc)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]table.Tuple(nil), in...)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	if limit >= 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// sameTuples reports the first tuple where got and want differ.
func sameTuples(got, want []table.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func TestExternalSortMatchesInMemorySort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := tieSchema()
	in := tieRows(rng, 5000)
	pool, d := sortPool(t, 8)
	live := d.LivePages()
	for _, col := range []string{"k", "f", "s"} {
		ext, err := NewSort(NewMemScan(s, in), col, false, -1, pool)
		if err != nil {
			t.Fatal(err)
		}
		ext.RunRows = 128 // force ~40 spill runs
		got, err := Collect(ext)
		if err != nil {
			t.Fatal(err)
		}
		if ext.spillRuns < 2 {
			t.Fatalf("%s: %d spill runs, want several", col, ext.spillRuns)
		}
		if err := sameTuples(got, stableOrder(t, s, in, col, false, -1)); err != nil {
			t.Fatalf("ORDER BY %s: %v", col, err)
		}
	}
	if got := d.LivePages(); got != live {
		t.Fatalf("live pages %d after the sorts, want %d: spill runs leaked", got, live)
	}
}

func TestExternalSortDescAndTypes(t *testing.T) {
	pool, _ := sortPool(t, 8)
	s := table.MustSchema(table.Column{Name: "name", Type: table.Text})
	in := []table.Tuple{{table.TextVal("b")}, {table.TextVal("a")}, {table.TextVal("c")}}
	ext, err := NewSort(NewMemScan(s, in), "name", true, -1, pool)
	if err != nil {
		t.Fatal(err)
	}
	ext.RunRows = 1
	got, err := Collect(ext)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Str != "c" || got[2][0].Str != "a" {
		t.Fatalf("desc text sort = %v", got)
	}
}

func TestExternalSortValidation(t *testing.T) {
	pool, _ := sortPool(t, 4)
	s := table.MustSchema(table.Column{Name: "v", Type: table.FloatVec})
	if _, err := NewSort(NewMemScan(s, nil), "v", false, -1, pool); err == nil {
		t.Fatal("vector sort key must be rejected")
	}
	if _, err := NewSort(NewMemScan(intsSchema(), nil), "ghost", false, -1, pool); err == nil {
		t.Fatal("unknown column must be rejected")
	}
	ext, err := NewSort(NewMemScan(intsSchema(), nil), "id", false, -1, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ext.Next(); err == nil {
		t.Fatal("Next before Open must error")
	}
	ext.RunRows = 0
	if err := ext.Open(); err == nil {
		t.Fatal("run size 0 must error")
	}
}

func TestExternalSortEmptyInput(t *testing.T) {
	pool, _ := sortPool(t, 4)
	for _, limit := range []int{-1, 0, 5} {
		ext, err := NewSort(NewMemScan(intsSchema(), nil), "id", false, limit, pool)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(ext)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("limit %d: rows = %d", limit, len(got))
		}
	}
}

// Property: a sort equals the stable in-memory sort then LIMIT k, whole
// tuple for whole tuple, for random inputs with heavy ties, every key type,
// both directions and k in {none, 0, 1, n-1, n, n+5, RunRows, RunRows+1}.
// Without a limit the input spans several runs; a top-k (k ≤ RunRows)
// never touches the pool, and a spilling sort hands every page back.
func TestExternalSortProperty(t *testing.T) {
	pool, d := sortPool(t, 64)
	s := tieSchema()
	var failure error
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(400)
		runRows := 1 + rng.Intn((n+1)/2) // at least two runs
		switch rng.Intn(8) {
		case 0:
			n = rng.Intn(2) // empty and one-row inputs
		case 1:
			n, runRows = rng.Intn(2*defaultRunRows), defaultRunRows
		}
		in := tieRows(rng, n)
		col := []string{"k", "f", "s"}[rng.Intn(3)]
		desc := rng.Intn(2) == 0
		k := []int{-1, 0, 1, n - 1, n, n + 5, runRows, runRows + 1}[rng.Intn(8)]
		live, stats := d.LivePages(), pool.Stats()
		srt, err := NewSort(NewMemScan(s, in), col, desc, k, pool)
		if err != nil {
			failure = err
			return false
		}
		srt.RunRows = runRows
		var op Operator = srt
		if k >= 0 {
			op = NewLimit(srt, k)
		}
		got, err := Collect(op)
		if err != nil {
			failure = err
			return false
		}
		what := fmt.Sprintf("ORDER BY %s desc=%v LIMIT %d, %d rows in runs of %d", col, desc, k, n, runRows)
		if err := sameTuples(got, stableOrder(t, s, in, col, desc, k)); err != nil {
			failure = fmt.Errorf("%s: %v", what, err)
			return false
		}
		topk := k >= 0 && k <= runRows
		switch {
		case srt.TopK() != topk:
			failure = fmt.Errorf("%s: TopK() = %v", what, srt.TopK())
		case topk && (srt.spillRuns != 0 || pool.Stats() != stats):
			failure = fmt.Errorf("%s: top-k touched the pool (%d spill runs)", what, srt.spillRuns)
		case !topk && n > runRows && srt.spillRuns < 2:
			failure = fmt.Errorf("%s: spilled %d runs", what, srt.spillRuns)
		case d.LivePages() != live:
			failure = fmt.Errorf("%s: live pages %d after the sort, want %d", what, d.LivePages(), live)
		}
		return failure == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err, failure)
	}
}

// A cancelled top-k stops within one tuple of the cancel and surfaces
// context.Canceled.
func TestTopKCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tok, stop := lifecycle.Watch(ctx)
	defer stop()
	s, in := sortInput(5000)
	seen := 0
	src := NewMap(NewMemScan(s, in), s, func(tp table.Tuple) (table.Tuple, error) {
		if seen++; seen == 100 {
			cancel()
			for !tok.Canceled() {
				runtime.Gosched()
			}
		}
		return tp, nil
	})
	srt, err := NewSort(src, "id", false, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	srt.SetCancel(tok)
	if _, err := Collect(srt); !errors.Is(err, context.Canceled) {
		t.Fatalf("top-k err = %v, want context.Canceled", err)
	}
	if seen != 100 {
		t.Fatalf("top-k read %d tuples, want it to stop at the 100th", seen)
	}
}
