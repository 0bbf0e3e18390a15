package ann

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// HNSW is a hierarchical navigable small world graph (Malkov & Yashunin),
// the index the paper's Sec. 7.2.2 uses (via Faiss) to cache inference
// results. Insertions assign each node a geometric random level; searches
// greedily descend the upper layers and run a beam search of width efSearch
// on the bottom layer.
type HNSW struct {
	dim            int
	m              int // max neighbours per node per layer (2m on layer 0)
	efConstruction int
	efSearch       int
	ml             float64
	rng            *rand.Rand

	nodes      []hnswNode
	entryPoint int
	maxLevel   int
}

type hnswNode struct {
	id        int64
	vec       []float32
	neighbors [][]int32 // per level
}

// HNSWConfig tunes index construction and search.
type HNSWConfig struct {
	M              int   // neighbours per layer (default 16)
	EfConstruction int   // beam width during insertion (default 200)
	EfSearch       int   // beam width during search (default 64)
	Seed           int64 // level-assignment RNG seed
}

// NewHNSW returns an empty HNSW index of the given dimension.
func NewHNSW(dim int, cfg HNSWConfig) *HNSW {
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.EfConstruction <= 0 {
		cfg.EfConstruction = 200
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = 64
	}
	return &HNSW{
		dim:            dim,
		m:              cfg.M,
		efConstruction: cfg.EfConstruction,
		efSearch:       cfg.EfSearch,
		ml:             1 / math.Log(float64(cfg.M)),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		entryPoint:     -1,
	}
}

// SetEfSearch adjusts the search beam width (recall/latency trade-off).
func (h *HNSW) SetEfSearch(ef int) {
	if ef > 0 {
		h.efSearch = ef
	}
}

// Len implements Index.
func (h *HNSW) Len() int { return len(h.nodes) }

// randomLevel draws the node level from the standard geometric
// distribution floor(-ln(U)·mL).
func (h *HNSW) randomLevel() int {
	return int(-math.Log(h.rng.Float64()+1e-12) * h.ml)
}

// Add implements Index.
func (h *HNSW) Add(id int64, vec []float32) error {
	if err := checkDim(h.dim, vec); err != nil {
		return err
	}
	level := h.randomLevel()
	node := hnswNode{
		id:        id,
		vec:       append([]float32(nil), vec...),
		neighbors: make([][]int32, level+1),
	}
	idx := len(h.nodes)
	h.nodes = append(h.nodes, node)

	if h.entryPoint < 0 {
		h.entryPoint = idx
		h.maxLevel = level
		return nil
	}

	ep := h.entryPoint
	// Greedy descent through layers above the new node's level.
	for l := h.maxLevel; l > level; l-- {
		ep = h.greedyClosest(vec, ep, l)
	}
	// Insert with beam search from min(level, maxLevel) down to 0.
	for l := min(level, h.maxLevel); l >= 0; l-- {
		cands := h.searchLayer(vec, ep, h.efConstruction, l)
		maxConn := h.m
		if l == 0 {
			maxConn = 2 * h.m
		}
		selected := h.selectHeuristic(cands, maxConn)
		for _, c := range selected {
			ci := int(c.ID) // searchLayer returns node indices in ID
			h.nodes[idx].neighbors[l] = append(h.nodes[idx].neighbors[l], int32(ci))
			h.nodes[ci].neighbors[l] = append(h.nodes[ci].neighbors[l], int32(idx))
			h.pruneNeighbors(ci, l, maxConn)
		}
		if len(cands) > 0 {
			ep = int(cands[0].ID)
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entryPoint = idx
	}
	return nil
}

// selectHeuristic implements the neighbour-selection heuristic of the HNSW
// paper (Algorithm 4): walk the candidates closest-first and keep one only
// if it is closer to the query than to every already-selected neighbour.
// This preserves links across clusters that pure closest-M selection would
// discard, which is what keeps the graph navigable on clustered data.
// Candidates must arrive sorted closest-first; Result.ID holds node indices.
func (h *HNSW) selectHeuristic(cands []Result, maxConn int) []Result {
	if len(cands) <= maxConn {
		return cands
	}
	selected := make([]Result, 0, maxConn)
	for _, c := range cands {
		if len(selected) >= maxConn {
			break
		}
		ok := true
		for _, s := range selected {
			if SquaredL2(h.nodes[c.ID].vec, h.nodes[s.ID].vec) < c.Dist {
				ok = false
				break
			}
		}
		if ok {
			selected = append(selected, c)
		}
	}
	// Backfill with the closest skipped candidates if the heuristic was
	// too selective.
	if len(selected) < maxConn {
		chosen := make(map[int64]bool, len(selected))
		for _, s := range selected {
			chosen[s.ID] = true
		}
		for _, c := range cands {
			if len(selected) >= maxConn {
				break
			}
			if !chosen[c.ID] {
				selected = append(selected, c)
			}
		}
	}
	return selected
}

// pruneNeighbors trims node n's layer-l adjacency back to maxConn with the
// same diversity heuristic used at insertion. Pruning by pure closest-M
// instead provably disconnects clustered data: once a cluster's nodes reach
// full degree, every long cross-cluster edge is the farthest and gets
// dropped, leaving layer 0 partitioned.
func (h *HNSW) pruneNeighbors(n, l, maxConn int) {
	adj := h.nodes[n].neighbors[l]
	if len(adj) <= maxConn {
		return
	}
	cands := make([]Result, 0, len(adj))
	for _, nb := range adj {
		cands = append(cands, Result{ID: int64(nb), Dist: SquaredL2(h.nodes[n].vec, h.nodes[nb].vec)})
	}
	// A less-only comparator, as sort.Slice's was: cmp.Compare would order
	// NaN distances differently and move edges.
	slices.SortFunc(cands, func(a, b Result) int {
		if a.Dist < b.Dist {
			return -1
		}
		return 0
	})
	best := h.selectHeuristic(cands, maxConn)
	out := adj[:0]
	for _, r := range best {
		out = append(out, int32(r.ID))
	}
	h.nodes[n].neighbors[l] = out
}

// greedyClosest walks layer l greedily from ep toward vec.
func (h *HNSW) greedyClosest(vec []float32, ep, l int) int {
	cur := ep
	curDist := SquaredL2(vec, h.nodes[cur].vec)
	for {
		improved := false
		for _, nb := range h.nodes[cur].neighbors[l] {
			if d := SquaredL2(vec, h.nodes[nb].vec); d < curDist {
				cur, curDist = int(nb), d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// candHeap is a min-heap of Results by distance (best on top): the search
// frontier. Like resultHeap, hand-rolled to avoid heap.Interface boxing on
// the Search hot path.
type candHeap []Result

func (h *candHeap) push(r Result) {
	s := append(*h, r)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].Dist <= s[i].Dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *candHeap) pop() Result {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(s) && s[l].Dist < s[small].Dist {
			small = l
		}
		if r < len(s) && s[r].Dist < s[small].Dist {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return top
}

// searchLayer runs a beam search of width ef on layer l and returns the
// closest candidates (node indices in Result.ID), closest first.
func (h *HNSW) searchLayer(vec []float32, ep, ef, l int) []Result {
	visited := make([]bool, len(h.nodes))
	visited[ep] = true
	d0 := SquaredL2(vec, h.nodes[ep].vec)
	frontier := candHeap{{ID: int64(ep), Dist: d0}}
	best := resultHeap{{ID: int64(ep), Dist: d0}}

	for len(frontier) > 0 {
		cur := frontier.pop()
		if best.Len() >= ef && cur.Dist > best[0].Dist {
			break
		}
		for _, nb := range h.nodes[cur.ID].neighbors[l] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			d := SquaredL2(vec, h.nodes[nb].vec)
			if best.Len() < ef || d < best[0].Dist {
				frontier.push(Result{ID: int64(nb), Dist: d})
				keepBest(&best, Result{ID: int64(nb), Dist: d}, ef)
			}
		}
	}
	return drainSorted(&best)
}

// Search implements Index.
func (h *HNSW) Search(vec []float32, k int) ([]Result, error) {
	if err := checkDim(h.dim, vec); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("ann: k must be >= 1, got %d", k)
	}
	if h.entryPoint < 0 {
		return nil, nil
	}
	ep := h.entryPoint
	for l := h.maxLevel; l > 0; l-- {
		ep = h.greedyClosest(vec, ep, l)
	}
	ef := h.efSearch
	if ef < k {
		ef = k
	}
	cands := h.searchLayer(vec, ep, ef, 0)
	if len(cands) > k {
		cands = cands[:k]
	}
	// Map node indices back to user ids.
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: h.nodes[c.ID].id, Dist: c.Dist}
	}
	return out, nil
}
