package table

import (
	"strings"
	"testing"
)

// colTestHeap builds a heap of n rows: (id, name, features[w]) with
// deterministic contents, padded so the chain spans several pages.
func colTestHeap(t *testing.T, n, w int) (*Heap, *Schema) {
	t.Helper()
	s := MustSchema(
		Column{"id", Int64},
		Column{"name", Text},
		Column{"features", FloatVec},
	)
	h, err := NewHeap(newPool(t, 8), s)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 64)
	for i := 0; i < n; i++ {
		vec := make([]float32, w)
		for j := range vec {
			vec[j] = float32(i*w + j)
		}
		if _, err := h.Insert(Tuple{IntVal(int64(i)), TextVal(pad), VecVal(vec)}); err != nil {
			t.Fatal(err)
		}
	}
	return h, s
}

func TestColBatchMatchesRowScan(t *testing.T) {
	const n, w, batch = 137, 6, 16 // n % batch != 0 exercises the short tail
	h, s := colTestHeap(t, n, w)
	featIdx := s.ColIndex("features")

	row := h.Scan()
	col := h.Scan()
	seen := 0
	for {
		cb, err := NewColBatch(s, featIdx, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := col.NextColumnar(cb)
		if err != nil {
			t.Fatal(err)
		}
		if got != cb.Rows() || len(cb.Feats) != got*cb.Width {
			t.Fatalf("returned %d rows, batch holds %d, feats len %d", got, cb.Rows(), len(cb.Feats))
		}
		for i := 0; i < got; i++ {
			want, ok, err := row.Next()
			if err != nil || !ok {
				t.Fatalf("row scan ended early at %d: %v", seen+i, err)
			}
			for j := range want {
				if !cb.Tuples[i][j].Equal(want[j]) {
					t.Fatalf("row %d col %d: %v vs %v", seen+i, j, cb.Tuples[i][j], want[j])
				}
			}
			// The tuple's feature value must alias the contiguous buffer,
			// not copy it.
			if &cb.Tuples[i][featIdx].Vec[0] != &cb.Feats[i*w] {
				t.Fatalf("row %d feature vector does not alias Feats", seen+i)
			}
		}
		seen += got
		if got < batch {
			break
		}
	}
	if seen != n {
		t.Fatalf("columnar scan yielded %d rows, want %d", seen, n)
	}
	if _, ok, _ := row.Next(); ok {
		t.Fatal("row scan has leftover tuples")
	}
}

// Every tuple of a batch has room for exactly one more value, and
// extending one row in place leaves its neighbours as they were.
func TestColBatchTuplesHaveRoomForOneValue(t *testing.T) {
	const n, w = 20, 3
	h, s := colTestHeap(t, n, w)
	cb, err := NewColBatch(s, s.ColIndex("features"), n)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := h.Scan().NextColumnar(cb); err != nil || got != n {
		t.Fatalf("NextColumnar = %d, %v", got, err)
	}
	for i, tup := range cb.Tuples {
		if len(tup) != s.Len() || cap(tup) != s.Len()+1 {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", i, len(tup), cap(tup), s.Len(), s.Len()+1)
		}
	}
	for i := range cb.Tuples {
		ext := append(cb.Tuples[i], IntVal(-1))
		if &ext[0] != &cb.Tuples[i][0] {
			t.Fatalf("row %d: the extra value did not fit in place", i)
		}
		if i+1 < n && cb.Tuples[i+1][0].Int != int64(i+1) {
			t.Fatalf("extending row %d changed row %d to %v", i, i+1, cb.Tuples[i+1])
		}
	}
}

// TestColBatchResumesMidPage fills tiny batches so page boundaries and batch
// boundaries interleave every way.
func TestColBatchResumesMidPage(t *testing.T) {
	const n, w = 101, 3
	h, s := colTestHeap(t, n, w)
	featIdx := s.ColIndex("features")
	sc := h.Scan()
	var next int64
	for {
		cb, err := NewColBatch(s, featIdx, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.NextColumnar(cb)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < got; i++ {
			if cb.Tuples[i][0].Int != next {
				t.Fatalf("expected id %d, got %d", next, cb.Tuples[i][0].Int)
			}
			next++
		}
		if got < 2 {
			break
		}
	}
	if next != n {
		t.Fatalf("resumed scan covered %d rows, want %d", next, n)
	}
}

func TestColBatchRaggedWidthRejected(t *testing.T) {
	s := MustSchema(Column{"features", FloatVec})
	h, err := NewHeap(newPool(t, 4), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 4, 5} {
		if _, err := h.Insert(Tuple{VecVal(make([]float32, w))}); err != nil {
			t.Fatal(err)
		}
	}
	cb, err := NewColBatch(s, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Scan().NextColumnar(cb); err == nil {
		t.Fatal("ragged feature widths must fail the columnar decode")
	}
}

func TestNewColBatchValidates(t *testing.T) {
	s := MustSchema(Column{"id", Int64}, Column{"v", FloatVec})
	if _, err := NewColBatch(s, 0, 4); err == nil {
		t.Fatal("Int64 feature column must be rejected")
	}
	if _, err := NewColBatch(s, 2, 4); err == nil {
		t.Fatal("out-of-range feature column must be rejected")
	}
	if _, err := NewColBatch(s, 1, 0); err == nil {
		t.Fatal("zero-capacity batch must be rejected")
	}
}

// TestColBatchSecondVecColumn: only the designated feature column lands in
// Feats; other vector columns still decode into their own storage.
func TestColBatchSecondVecColumn(t *testing.T) {
	s := MustSchema(Column{"a", FloatVec}, Column{"b", FloatVec})
	h, err := NewHeap(newPool(t, 4), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(Tuple{VecVal([]float32{1, 2}), VecVal([]float32{3, 4, 5})}); err != nil {
		t.Fatal(err)
	}
	cb, err := NewColBatch(s, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Scan().NextColumnar(cb)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 || cb.Width != 3 {
		t.Fatalf("got %d rows width %d", got, cb.Width)
	}
	if !cb.Tuples[0][0].Equal(VecVal([]float32{1, 2})) {
		t.Fatalf("non-feature vec column decoded as %v", cb.Tuples[0][0])
	}
	if !cb.Tuples[0][1].Equal(VecVal([]float32{3, 4, 5})) {
		t.Fatalf("feature column decoded as %v", cb.Tuples[0][1])
	}
	if &cb.Tuples[0][1].Vec[0] != &cb.Feats[0] {
		t.Fatal("feature column must alias Feats")
	}
}
