package exec

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tensorbase/internal/fault"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

func faultySortPool(t *testing.T, frames int) (*storage.BufferPool, *storage.DiskManager, *fault.Injector) {
	t.Helper()
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "fsort.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	inj := fault.New()
	d.SetFaults(inj)
	return storage.NewBufferPool(d, frames), d, inj
}

func sortInput(n int) (*table.Schema, []table.Tuple) {
	s := intsSchema()
	in := make([]table.Tuple, n)
	for i := range in {
		in[i] = table.Tuple{table.IntVal(int64(n - i)), table.FloatVal(float64(i))}
	}
	return s, in
}

func TestExternalSortSurfacesSpillWriteFault(t *testing.T) {
	pool, d, inj := faultySortPool(t, 8)
	s, in := sortInput(5000)
	errIO := errors.New("spill write error")
	inj.FailAfter("disk.write", errIO, 1)
	live := d.LivePages()

	ext, err := NewSort(NewMemScan(s, in), "id", false, -1, pool)
	if err != nil {
		t.Fatal(err)
	}
	ext.RunRows = 128 // force spill runs
	if _, err := Collect(ext); !errors.Is(err, errIO) {
		t.Fatalf("sort err = %v, want injected spill write fault", err)
	}
	if got := pool.Pinned(); got != 0 {
		t.Fatalf("pinned frames after failed sort = %d, want 0", got)
	}
	if got := d.LivePages(); got != live {
		t.Fatalf("live pages after failed sort = %d, want %d: spill runs leaked", got, live)
	}
}

func TestExternalSortSurfacesMergeReadFault(t *testing.T) {
	pool, d, inj := faultySortPool(t, 4)
	s, in := sortInput(5000)
	errIO := errors.New("merge read error")
	live := d.LivePages()

	ext, err := NewSort(NewMemScan(s, in), "id", false, -1, pool)
	if err != nil {
		t.Fatal(err)
	}
	ext.RunRows = 128
	if err := ext.Open(); err != nil {
		t.Fatal(err)
	}
	inj.Reset() // fault the merge phase only
	inj.FailAfter("disk.read", errIO, 1)
	sawErr := false
	for {
		_, ok, err := ext.Next()
		if err != nil {
			if !errors.Is(err, errIO) {
				t.Fatalf("merge err = %v, want injected read fault", err)
			}
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if err := ext.Close(); err != nil {
		t.Fatal(err)
	}
	if !sawErr {
		t.Fatal("merge never missed the pool; shrink frames or grow the input")
	}
	if got := pool.Pinned(); got != 0 {
		t.Fatalf("pinned frames = %d, want 0", got)
	}
	if got := d.LivePages(); got != live {
		t.Fatalf("live pages after Close = %d, want %d: spill runs leaked", got, live)
	}
}

func TestExternalSortCancelledMidSpill(t *testing.T) {
	pool, d, _ := faultySortPool(t, 8)
	s, in := sortInput(5000)
	live := d.LivePages()
	for _, at := range []int{1, 1000} { // before the first tuple; after 7 runs
		ctx, cancel := context.WithCancel(context.Background())
		tok, stop := lifecycle.Watch(ctx)
		seen := 0
		src := NewMap(NewMemScan(s, in), s, func(tp table.Tuple) (table.Tuple, error) {
			if seen++; seen == at {
				cancel()
				for !tok.Canceled() {
					runtime.Gosched()
				}
			}
			return tp, nil
		})
		ext, err := NewSort(src, "id", false, -1, pool)
		if err != nil {
			t.Fatal(err)
		}
		ext.RunRows = 128
		ext.SetCancel(tok)
		if _, err := Collect(ext); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at tuple %d: sort err = %v, want context.Canceled", at, err)
		}
		stop()
		cancel()
		if seen != at {
			t.Fatalf("sort read %d tuples, want it to stop at the %dth", seen, at)
		}
		if at > 1 && ext.spillRuns == 0 {
			t.Fatalf("cancel at tuple %d came before any spill", at)
		}
		if got := pool.Pinned(); got != 0 {
			t.Fatalf("pinned frames after cancelled sort = %d, want 0", got)
		}
		if got := d.LivePages(); got != live {
			t.Fatalf("live pages after cancelled sort = %d, want %d: spill runs leaked", got, live)
		}
	}
}

// A key lookup over many duplicates streams row by row and observes the
// cancellation token per row, like a scan; its stage note names the key
// and the candidate count.
func TestHeapLookupCancelledMidStream(t *testing.T) {
	pool, _ := sortPool(t, 8)
	h, err := table.NewHeap(pool, table.MustSchema(table.Column{Name: "id", Type: table.Int64}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := h.Insert(table.Tuple{table.IntVal(int64(i % 50 / 49))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tok, stop := lifecycle.Watch(ctx)
	defer stop()
	l := NewHeapLookupAt(h, 0, table.CSNMax)
	l.SetCancel(tok)
	if err := l.Open(); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if tup, ok, err := l.Next(); err != nil || !ok || tup[0].Int != 0 {
			t.Fatalf("row %d = %v, %v, %v", i, tup, ok, err)
		}
	}
	cancel()
	for !tok.Canceled() {
		runtime.Gosched()
	}
	if _, _, err := l.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if note := l.StageNote(); !strings.Contains(note, "index lookup id = 0 (4900 rids)") {
		t.Fatalf("stage note %q", note)
	}
}

// closeCounter is an input whose Next fails after n rows and which counts
// its Closes.
type closeCounter struct {
	n, closes int
}

func (c *closeCounter) Schema() *table.Schema { return intsSchema() }
func (c *closeCounter) Open() error           { return nil }
func (c *closeCounter) Close() error          { c.closes++; return nil }
func (c *closeCounter) Next() (table.Tuple, bool, error) {
	if c.n <= 0 {
		return nil, false, errors.New("input died")
	}
	c.n--
	return table.Tuple{table.IntVal(int64(c.n)), table.FloatVal(1)}, true, nil
}

// TestCollectClosesFailedOpen: a pipeline breaker whose input fails inside
// Open releases that input through one rule, Collect's Close, exactly once
// — a second Close would release a PREDICT's compute token twice.
func TestCollectClosesFailedOpen(t *testing.T) {
	breakers := map[string]func(in Operator) (Operator, error){
		"aggregate": func(in Operator) (Operator, error) {
			return NewHashAggregate(in, []string{"id"}, []AggSpec{{Kind: Count, As: "n"}})
		},
		"sort": func(in Operator) (Operator, error) { return NewSort(in, "id", false, -1, nil) },
		"topk": func(in Operator) (Operator, error) { return NewSort(in, "id", false, 3, nil) },
		"band join, left input fails": func(in Operator) (Operator, error) {
			return NewBandJoin(in, NewMemScan(intsSchema(), rows([2]float64{1, 1})), "v", "v", 0)
		},
		"band join, right input fails": func(in Operator) (Operator, error) {
			return NewBandJoin(NewMemScan(intsSchema(), rows([2]float64{1, 1})), in, "v", "v", 0)
		},
	}
	for name, build := range breakers {
		in := &closeCounter{n: 5}
		op, err := build(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Collect(op); err == nil || !strings.Contains(err.Error(), "input died") {
			t.Fatalf("%s: err = %v, want the input's error", name, err)
		}
		if in.closes != 1 {
			t.Fatalf("%s: input closed %d times, want 1", name, in.closes)
		}
	}
}
