// Package ann implements the approximate-nearest-neighbour index the paper
// proposes to embed in the RDBMS for inference-result caching (Sec. 5):
// hierarchical navigable small world graphs (HNSW, the index used in the
// Sec. 7.2.2 validation), plus a brute-force index for ground truth.
package ann

import (
	"fmt"
	"sort"
)

// Result is one neighbour: the stored id and its squared L2 distance to the
// query.
type Result struct {
	ID   int64
	Dist float64
}

// Index is a vector index over float32 vectors of a fixed dimension.
type Index interface {
	// Add inserts a vector under id. Ids need not be unique, but lookups
	// return whichever copies the index finds.
	Add(id int64, vec []float32) error
	// Search returns up to k nearest neighbours, closest first.
	Search(vec []float32, k int) ([]Result, error)
	// Len returns the number of stored vectors.
	Len() int
}

// SquaredL2 returns the squared Euclidean distance between two vectors of
// equal length.
func SquaredL2(a, b []float32) float64 {
	var s float64
	for i, v := range a {
		d := float64(v) - float64(b[i])
		s += d * d
	}
	return s
}

func checkDim(dim int, vec []float32) error {
	if len(vec) != dim {
		return fmt.Errorf("ann: vector has dimension %d, index wants %d", len(vec), dim)
	}
	return nil
}

// Brute is an exact index by linear scan: the ground truth for recall
// measurements and a correct fallback for small caches.
type Brute struct {
	dim  int
	ids  []int64
	vecs [][]float32
}

// NewBrute returns an exact linear-scan index of the given dimension.
func NewBrute(dim int) *Brute { return &Brute{dim: dim} }

// Add implements Index.
func (b *Brute) Add(id int64, vec []float32) error {
	if err := checkDim(b.dim, vec); err != nil {
		return err
	}
	b.ids = append(b.ids, id)
	b.vecs = append(b.vecs, append([]float32(nil), vec...))
	return nil
}

// Search implements Index.
func (b *Brute) Search(vec []float32, k int) ([]Result, error) {
	if err := checkDim(b.dim, vec); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("ann: k must be >= 1, got %d", k)
	}
	res := make([]Result, 0, len(b.ids))
	for i, v := range b.vecs {
		res = append(res, Result{ID: b.ids[i], Dist: SquaredL2(vec, v)})
	}
	sort.Slice(res, func(i, j int) bool { return res[i].Dist < res[j].Dist })
	if len(res) > k {
		res = res[:k]
	}
	return res, nil
}

// Len implements Index.
func (b *Brute) Len() int { return len(b.ids) }

// resultHeap is a max-heap of Results by distance (worst on top), used to
// keep the best k while scanning candidates. The sift operations are
// hand-rolled rather than layered on container/heap: pushing through
// heap.Interface boxes every Result in an interface value, and that
// allocation churn dominated Search profiles on cache-sized graphs.
type resultHeap []Result

func (h resultHeap) Len() int { return len(h) }

func (h *resultHeap) push(r Result) {
	s := append(*h, r)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].Dist >= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *resultHeap) pop() Result {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	s.siftDown(0)
	*h = s
	return top
}

func (h resultHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l].Dist > h[big].Dist {
			big = l
		}
		if r < len(h) && h[r].Dist > h[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// keepBest pushes r into h, keeping at most k entries.
func keepBest(h *resultHeap, r Result, k int) {
	if h.Len() < k {
		h.push(r)
		return
	}
	if r.Dist < (*h)[0].Dist {
		(*h)[0] = r
		h.siftDown(0)
	}
}

// drainSorted empties h into a closest-first slice.
func drainSorted(h *resultHeap) []Result {
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	return out
}
