package ann_test

import (
	"math"
	"testing"

	"tensorbase/internal/ann"
	"tensorbase/internal/cache"
	"tensorbase/internal/data"
	"tensorbase/internal/tensor"
)

// fraudGraph is the hash of the graph an eager, seeded build of
// data.Fraud(1, 2048) links.
const fraudGraph = 0x22ab54da489d8c8d

// build adds every row of x, in row order, to a fresh HNSW seeded as the
// result cache seeds its own.
func build(t *testing.T, x *tensor.Tensor) *ann.HNSW {
	t.Helper()
	h := ann.NewHNSW(x.Dim(1), ann.HNSWConfig{Seed: 1})
	for i := 0; i < x.Dim(0); i++ {
		if err := h.Add(int64(i), x.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestHNSWGraphGolden pins the exact graph a seeded build links, edge for
// edge, on Fraud rows and on a clustered set: a change to construction
// (neighbour selection, pruning, its sort) that moves any edge moves the
// hash. It also checks that a result cache's graph, built lazily on its
// first wide lookup, is the graph an eager build of the same rows links.
func TestHNSWGraphGolden(t *testing.T) {
	fraud := data.Fraud(1, 2048).X
	for _, tc := range []struct {
		name string
		x    *tensor.Tensor
		want uint64
	}{
		{"fraud", fraud, fraudGraph},
		{"clusters", data.Clusters(3, 1024, 16, 8, 0.3).X, 0x21bf834e12aa2234},
	} {
		if got := ann.GraphHash(build(t, tc.x)); got != tc.want {
			t.Errorf("%s: graph hash %#x, want %#x", tc.name, got, tc.want)
		}
	}

	h := ann.NewHNSW(fraud.Dim(1), ann.HNSWConfig{Seed: 1})
	rc, err := cache.New(h, fraud.Dim(1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fraud.Dim(0); i++ {
		if err := rc.Insert(fraud.Row(i), []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	probe := make([]float32, fraud.Dim(1)) // every entry is in its window
	if _, ok, err := rc.Lookup(probe); err != nil || !ok {
		t.Fatalf("wide lookup: ok=%v err=%v", ok, err)
	}
	if got := ann.GraphHash(h); got != fraudGraph {
		t.Fatalf("cache graph hash %#x, eager build %#x", got, fraudGraph)
	}
}
