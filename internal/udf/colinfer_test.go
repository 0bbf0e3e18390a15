package udf

import (
	"math/rand"
	"path/filepath"
	"testing"

	"tensorbase/internal/exec"
	"tensorbase/internal/nn"
	"tensorbase/internal/parallel"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
)

// featHeap materialises rows into a heap so scans go through the real
// page-pinned path that supports columnar batching.
func featHeap(t *testing.T, rows []table.Tuple) *table.Heap {
	t.Helper()
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "t.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	h, err := table.NewHeap(storage.NewBufferPool(d, 8), featSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := h.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestInferOpColumnarBitIdenticalToRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	m := nn.FraudFC(rng, 32)
	rows := featRows(rng, 103, 28) // several batches, ragged tail
	h := featHeap(t, rows)

	rowOp, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := collectPreds(t, rowOp)
	if rowOp.Stats().ColBatches.Load() != 0 {
		t.Fatal("MemScan child must use the row path")
	}

	colOp, err := NewInferOp(exec.NewHeapScan(h), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	got := collectPreds(t, colOp)
	if colOp.Stats().ColBatches.Load() == 0 {
		t.Fatal("HeapScan child must engage the columnar path")
	}
	if len(got) != len(want) {
		t.Fatalf("columnar %d rows, row path %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d[%d]: columnar %v != row path %v (must be bit-identical)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestInferOpColumnarFallsBackBehindFilter: a non-columnar child (here a
// Filter) must silently use the row path with identical results.
func TestInferOpColumnarFallsBackBehindFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 40, 28)
	h := featHeap(t, rows)
	pred := func(tp table.Tuple) (bool, error) { return tp[0].Int%2 == 0, nil }

	filtered := exec.NewFilter(exec.NewHeapScan(h), pred)
	op, err := NewInferOp(filtered, NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if op.Stats().ColBatches.Load() != 0 {
		t.Fatal("filtered child must fall back to the row path")
	}
	if len(got) != 20 {
		t.Fatalf("got %d rows, want 20", len(got))
	}
	for _, r := range got {
		if r[0].Int%2 != 0 {
			t.Fatalf("filter leaked row id %d", r[0].Int)
		}
	}
}

// TestInferOpColumnarPipelined: the producer goroutine takes the columnar
// path too, and its output stays bit-identical to the serial columnar run.
func TestInferOpColumnarPipelined(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := nn.FraudFC(rng, 32)
	rows := featRows(rng, 57, 28)
	h := featHeap(t, rows)

	serialOp, err := NewInferOp(exec.NewHeapScan(h), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := collectPreds(t, serialOp)

	pipeOp, err := NewInferOp(exec.NewHeapScan(h), NewModelUDF(m, nil), "features", 8,
		WithPipeline(parallel.NewBudget(2)))
	if err != nil {
		t.Fatal(err)
	}
	got := collectPreds(t, pipeOp)
	if pipeOp.Stats().ColBatches.Load() == 0 {
		t.Fatal("pipelined run must engage the columnar path")
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d[%d]: pipelined columnar %v != serial %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// Only the columnar path extends rows in place: a row-path child keeps its
// tuples, even ones with spare capacity, and both paths emit the input
// columns followed by the prediction.
func TestInferOpExtendsOnlyOwnedRowsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	m := nn.FraudFC(rng, 32)
	rows := featRows(rng, 20, 28)
	for i, r := range rows {
		rows[i] = append(make(table.Tuple, 0, len(r)+1), r...)
	}
	h := featHeap(t, rows)
	for _, child := range []exec.Operator{exec.NewMemScan(featSchema(), rows), exec.NewHeapScan(h)} {
		op, err := NewInferOp(child, NewModelUDF(m, nil), "features", 8)
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range out {
			if len(r) != 3 || r[0].Int != int64(i) || r[2].Type != table.FloatVec || len(r[2].Vec) != 2 {
				t.Fatalf("row %d = %v", i, r)
			}
		}
	}
	for i, r := range rows {
		if spare := r[:cap(r)][len(r)]; spare.Type != 0 {
			t.Fatalf("the row path wrote %v past the end of child row %d", spare, i)
		}
	}
}
