package ann

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// clusteredData generates n vectors in `classes` Gaussian clusters, the
// shape of real feature/embedding workloads.
func clusteredData(rng *rand.Rand, n, dim, classes int, spread float64) ([][]float32, []int) {
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 5
		}
	}
	vecs := make([][]float32, n)
	labels := make([]int, n)
	for i := range vecs {
		c := rng.Intn(classes)
		labels[i] = c
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(centers[c][j] + rng.NormFloat64()*spread)
		}
		vecs[i] = v
	}
	return vecs, labels
}

func TestSquaredL2(t *testing.T) {
	if got := SquaredL2([]float32{0, 3}, []float32{4, 0}); got != 25 {
		t.Fatalf("SquaredL2 = %v", got)
	}
}

func TestBruteExactOrder(t *testing.T) {
	b := NewBrute(2)
	pts := [][]float32{{0, 0}, {1, 0}, {3, 0}, {10, 0}}
	for i, p := range pts {
		if err := b.Add(int64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := b.Search([]float32{0.9, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].ID != 1 || res[1].ID != 0 || res[2].ID != 2 {
		t.Fatalf("Search = %v", res)
	}
	if res[0].Dist >= res[1].Dist {
		t.Fatal("results not closest-first")
	}
}

func TestIndexValidation(t *testing.T) {
	for _, idx := range []Index{
		NewBrute(3),
		NewHNSW(3, HNSWConfig{}),
	} {
		if err := idx.Add(1, []float32{1, 2}); err == nil {
			t.Fatalf("%T: wrong-dimension Add must error", idx)
		}
		if err := idx.Add(1, []float32{1, 2, 3}); err != nil {
			t.Fatalf("%T: %v", idx, err)
		}
		if _, err := idx.Search([]float32{1}, 1); err == nil {
			t.Fatalf("%T: wrong-dimension Search must error", idx)
		}
		if _, err := idx.Search([]float32{1, 2, 3}, 0); err == nil {
			t.Fatalf("%T: k=0 must error", idx)
		}
		if idx.Len() != 1 {
			t.Fatalf("%T: Len = %d", idx, idx.Len())
		}
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	res, err := NewHNSW(3, HNSWConfig{}).Search([]float32{1, 2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty index returned %v", res)
	}
}

// recallAtK measures |approx ∩ exact| / k averaged over queries.
func recallAtK(t *testing.T, idx Index, exact *Brute, queries [][]float32, k int) float64 {
	t.Helper()
	var hits, total int
	for _, q := range queries {
		want, err := exact.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := make(map[int64]bool, len(want))
		for _, r := range want {
			wantIDs[r.ID] = true
		}
		for _, r := range got {
			if wantIDs[r.ID] {
				hits++
			}
		}
		total += len(want)
	}
	return float64(hits) / float64(total)
}

func buildAll(t *testing.T, vecs [][]float32, idxs ...Index) {
	t.Helper()
	for i, v := range vecs {
		for _, idx := range idxs {
			if err := idx.Add(int64(i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestHNSWRecallOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Queries share the data distribution, matching the result-cache use
	// case (queries similar to previously cached feature vectors).
	all, _ := clusteredData(rng, 2050, 16, 10, 1.0)
	vecs, queries := all[:2000], all[2000:]
	exact := NewBrute(16)
	h := NewHNSW(16, HNSWConfig{M: 16, EfConstruction: 100, EfSearch: 64, Seed: 42})
	buildAll(t, vecs, exact, h)
	if r := recallAtK(t, h, exact, queries, 10); r < 0.9 {
		t.Fatalf("HNSW recall@10 = %.3f, want >= 0.9", r)
	}
}

func TestHNSWEfSearchTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	all, _ := clusteredData(rng, 1540, 12, 8, 1.2)
	vecs, queries := all[:1500], all[1500:]
	exact := NewBrute(12)
	h := NewHNSW(12, HNSWConfig{M: 8, EfConstruction: 60, Seed: 7})
	buildAll(t, vecs, exact, h)
	h.SetEfSearch(4)
	low := recallAtK(t, h, exact, queries, 10)
	h.SetEfSearch(128)
	high := recallAtK(t, h, exact, queries, 10)
	if high < low {
		t.Fatalf("recall must not decrease with efSearch: %.3f → %.3f", low, high)
	}
	if high < 0.85 {
		t.Fatalf("recall at ef=128 is %.3f, want >= 0.85", high)
	}
}

func TestHNSWExactTop1OnSeparatedPoints(t *testing.T) {
	// With well-separated points, the top-1 neighbour must be exact.
	h := NewHNSW(2, HNSWConfig{Seed: 3})
	pts := [][]float32{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	for i, p := range pts {
		if err := h.Add(int64(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range pts {
		res, err := h.Search(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != int64(i) || res[0].Dist != 0 {
			t.Fatalf("query %d: %v", i, res)
		}
	}
}

// Property: every index returns results sorted by distance, with distances
// consistent with SquaredL2 against the stored vectors.
func TestResultsSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(6)
		n := 10 + rng.Intn(100)
		vecs, _ := clusteredData(rng, n, dim, 3, 1)
		idxs := []Index{
			NewBrute(dim),
			NewHNSW(dim, HNSWConfig{Seed: seed}),
		}
		for i, v := range vecs {
			for _, idx := range idxs {
				if idx.Add(int64(i), v) != nil {
					return false
				}
			}
		}
		q := vecs[rng.Intn(n)]
		for _, idx := range idxs {
			res, err := idx.Search(q, 5)
			if err != nil {
				return false
			}
			for i := 1; i < len(res); i++ {
				if res[i].Dist < res[i-1].Dist {
					return false
				}
			}
			for _, r := range res {
				if math.IsNaN(r.Dist) || r.Dist < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHNSWConcurrentSearch asserts the read path is safe to share: a frozen
// graph serves many goroutines searching in parallel (the result cache holds
// its read lock over exactly this call). Run under -race in the ROADMAP
// race tier.
func TestHNSWConcurrentSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	vecs, _ := clusteredData(rng, 500, 16, 8, 0.3)
	h := NewHNSW(16, HNSWConfig{Seed: 51})
	for i, v := range vecs {
		if err := h.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				q := vecs[(i*7+w)%len(vecs)]
				res, err := h.Search(q, 5)
				if err != nil || len(res) == 0 {
					t.Errorf("search: %v (%d results)", err, len(res))
					return
				}
				if res[0].Dist != 0 {
					t.Errorf("exact query did not return itself first (dist %g)", res[0].Dist)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
