package blocked

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"

	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// Accuracy-aware deduplication (Sec. 4): unlike relational data, tensor
// data tolerates bounded error, so blocks that are identical — or within an
// elementwise error bound ε — across models can share storage. DedupStore
// owns one block heap; matrices stored through it reference shared records,
// and near-duplicate blocks (|aᵢ−bᵢ| ≤ ε for every element) reuse an
// existing block instead of writing a new one. With ε = 0 only exact
// duplicates share.
//
// Matrices from a DedupStore support the block-indexed access paths
// (Block, Assemble, MultiplyStreaming); their heap is the shared pool, not
// one matrix.
type DedupStore struct {
	pool *storage.BufferPool
	heap *table.Heap
	bs   int
	eps  float32
	seed maphash.Seed
	// buckets: grid-quantised content hash → stored blocks. Blocks whose
	// elements all quantise to the same grid cell are candidates; an
	// exact elementwise verification enforces the ε bound.
	buckets map[uint64][]dedupEntry

	// Stats.
	stored int64 // blocks passed to Store
	shared int64 // blocks that reused an existing record
	saved  int64 // bytes not written thanks to sharing
}

type dedupEntry struct {
	rid  table.RID
	data []float32 // retained for verification
	rows int
	cols int
}

// NewDedupStore returns a dedup store with block size bs and elementwise
// error bound eps (0 = exact-only sharing).
func NewDedupStore(pool *storage.BufferPool, bs int, eps float32) (*DedupStore, error) {
	if bs < 1 || bs*bs*4 > storage.MaxRecordSize-64 {
		return nil, fmt.Errorf("blocked: invalid dedup block size %d", bs)
	}
	if eps < 0 {
		return nil, fmt.Errorf("blocked: negative dedup epsilon %g", eps)
	}
	heap, err := table.NewHeap(pool, blockSchema)
	if err != nil {
		return nil, err
	}
	return &DedupStore{
		pool:    pool,
		heap:    heap,
		bs:      bs,
		eps:     eps,
		seed:    maphash.MakeSeed(),
		buckets: make(map[uint64][]dedupEntry),
	}, nil
}

// Stats returns (blocks stored, blocks shared, bytes saved).
func (s *DedupStore) Stats() (stored, shared, bytesSaved int64) {
	return s.stored, s.shared, s.saved
}

// signature hashes each element's ε-grid cell, so any two blocks whose
// elements fall in the same cells collide. Verification afterwards makes
// the bound exact; grid-boundary near-duplicates may simply not share
// (dedup is best-effort).
func (s *DedupStore) signature(rows, cols int, data []float32) uint64 {
	var h maphash.Hash
	h.SetSeed(s.seed)
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(rows))
	binary.LittleEndian.PutUint32(buf[4:], uint32(cols))
	h.Write(buf[:])
	cell := s.eps * 2
	for _, v := range data {
		var q int64
		if cell > 0 {
			q = int64(math.Floor(float64(v / cell)))
		} else {
			q = int64(math.Float32bits(v))
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(q))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// withinEps reports whether every element pair differs by at most eps.
func withinEps(a, b []float32, eps float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

// Store chunks t into blocks, sharing each block with an existing ε-close
// one when possible, and returns the matrix view.
func (s *DedupStore) Store(t *tensor.Tensor) (*Matrix, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("blocked: DedupStore.Store requires a 2-D tensor, got %v", t.Shape())
	}
	m := &Matrix{
		heap: s.heap, pool: s.pool,
		Rows: t.Dim(0), Cols: t.Dim(1), BlockSize: s.bs,
		rids: make(map[[2]int]table.RID),
	}
	for rb := 0; rb < m.NumRowBlocks(); rb++ {
		for cb := 0; cb < m.NumColBlocks(); cb++ {
			blk := t.Slice2D(rb*s.bs, (rb+1)*s.bs, cb*s.bs, (cb+1)*s.bs)
			rid, err := s.storeBlock(blk)
			if err != nil {
				return nil, err
			}
			m.rids[[2]int{rb, cb}] = rid
		}
	}
	return m, nil
}

func (s *DedupStore) storeBlock(blk *tensor.Tensor) (table.RID, error) {
	s.stored++
	sig := s.signature(blk.Dim(0), blk.Dim(1), blk.Data())
	for _, e := range s.buckets[sig] {
		if e.rows == blk.Dim(0) && e.cols == blk.Dim(1) && withinEps(e.data, blk.Data(), s.eps) {
			s.shared++
			s.saved += blk.Bytes()
			return e.rid, nil
		}
	}
	rid, err := s.heap.Insert(table.Tuple{
		table.IntVal(0), // coordinates are per-matrix; the pool stores content only
		table.IntVal(0),
		table.IntVal(int64(blk.Dim(0))),
		table.IntVal(int64(blk.Dim(1))),
		table.VecVal(blk.Data()),
	})
	if err != nil {
		return table.RID{}, err
	}
	s.buckets[sig] = append(s.buckets[sig], dedupEntry{
		rid:  rid,
		data: append([]float32(nil), blk.Data()...),
		rows: blk.Dim(0),
		cols: blk.Dim(1),
	})
	return rid, nil
}
