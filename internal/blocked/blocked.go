// Package blocked implements the relation-centric tensor representation:
// a matrix is a relation of fixed-size tensor blocks stored in heap pages,
// and a matrix multiplication becomes a join on the shared block index
// followed by an elementwise-sum aggregation — the rewriting at the heart of
// the paper's relation-centric architecture (Sec. 1, Fig. 1; Sec. 7.1).
//
// Because blocks live in buffer-pool pages, a matrix larger than memory
// spills to disk transparently; this is what lets the relation-centric path
// complete the Table 3 workloads where whole-tensor runtimes OOM.
//
// Blocks are independent units of work, so the multiply runs
// intra-operator parallel: result blocks fan out across workers drawn from
// the shared core budget (internal/parallel), each worker streaming its
// operand blocks through the concurrently-latched buffer pool and heap and
// multiplying them on the tensor package's Dense kernels — the same ones
// the UDF-centric representation runs.
package blocked

import (
	"fmt"
	"sync"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/parallel"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// DefaultBlockSize is the default square block edge. A 64×64 float32 block
// is 16 KiB — half a storage page.
const DefaultBlockSize = 64

// blockSchema is the relation schema of a blocked matrix:
// (rowBlock, colBlock, rows, cols, data).
var blockSchema = table.MustSchema(
	table.Column{Name: "rb", Type: table.Int64},
	table.Column{Name: "cb", Type: table.Int64},
	table.Column{Name: "r", Type: table.Int64},
	table.Column{Name: "c", Type: table.Int64},
	table.Column{Name: "data", Type: table.FloatVec},
)

// Matrix is a dense matrix stored as a relation of tensor blocks. Matrix is
// safe for concurrent use: block reads ride the heap's shared latch, and
// appends (heap insert + index update) serialise on the matrix latch, so
// parallel multiply workers append result blocks while others read.
type Matrix struct {
	heap      *table.Heap
	pool      *storage.BufferPool
	Rows      int
	Cols      int
	BlockSize int
	// mu guards rids; the heap has its own latch.
	mu sync.RWMutex
	// rids indexes block coordinates → record id, so co-partitioned
	// access patterns (fetch all blocks of one block-row) need no scan.
	rids map[[2]int]table.RID
}

// NumRowBlocks returns the number of block rows.
func (m *Matrix) NumRowBlocks() int { return ceilDiv(m.Rows, m.BlockSize) }

// NumColBlocks returns the number of block columns.
func (m *Matrix) NumColBlocks() int { return ceilDiv(m.Cols, m.BlockSize) }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Store chunks a dense 2-D tensor into bs×bs blocks and writes them to a
// fresh heap in the pool. Edge blocks are clipped.
func Store(pool *storage.BufferPool, t *tensor.Tensor, bs int) (*Matrix, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("blocked: Store requires a 2-D tensor, got %v", t.Shape())
	}
	if bs < 1 {
		return nil, fmt.Errorf("blocked: block size %d < 1", bs)
	}
	if bs*bs*4 > storage.MaxRecordSize-64 {
		return nil, fmt.Errorf("blocked: block size %d does not fit a page record", bs)
	}
	heap, err := table.NewHeap(pool, blockSchema)
	if err != nil {
		return nil, err
	}
	m := &Matrix{
		heap: heap, pool: pool,
		Rows: t.Dim(0), Cols: t.Dim(1), BlockSize: bs,
		rids: make(map[[2]int]table.RID),
	}
	for rb := 0; rb < m.NumRowBlocks(); rb++ {
		for cb := 0; cb < m.NumColBlocks(); cb++ {
			blk := t.Slice2D(rb*bs, (rb+1)*bs, cb*bs, (cb+1)*bs)
			if err := m.putBlock(rb, cb, blk); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// NewEmpty creates a blocked matrix relation with no blocks yet; blocks are
// appended with AppendBlock. Used by producers that generate blocks
// streaming (e.g. the im2col rewriting) instead of from a dense tensor.
func NewEmpty(pool *storage.BufferPool, rows, cols, bs int) (*Matrix, error) {
	if bs < 1 || bs*bs*4 > storage.MaxRecordSize-64 {
		return nil, fmt.Errorf("blocked: invalid block size %d", bs)
	}
	heap, err := table.NewHeap(pool, blockSchema)
	if err != nil {
		return nil, err
	}
	return &Matrix{
		heap: heap, pool: pool,
		Rows: rows, Cols: cols, BlockSize: bs,
		rids: make(map[[2]int]table.RID),
	}, nil
}

// AppendBlock stores blk as block (rb, cb). The block's shape must match
// the clipped block extent at that coordinate. AppendBlock is safe to call
// from concurrent workers producing distinct blocks.
func (m *Matrix) AppendBlock(rb, cb int, blk *tensor.Tensor) error {
	wantR := m.blockRows(rb)
	wantC := m.blockCols(cb)
	if blk.Dim(0) != wantR || blk.Dim(1) != wantC {
		return fmt.Errorf("blocked: block (%d,%d) has shape %v, want (%d,%d)", rb, cb, blk.Shape(), wantR, wantC)
	}
	return m.putBlock(rb, cb, blk)
}

func (m *Matrix) blockRows(rb int) int {
	r := m.Rows - rb*m.BlockSize
	if r > m.BlockSize {
		r = m.BlockSize
	}
	return r
}

func (m *Matrix) blockCols(cb int) int {
	c := m.Cols - cb*m.BlockSize
	if c > m.BlockSize {
		c = m.BlockSize
	}
	return c
}

func (m *Matrix) putBlock(rb, cb int, blk *tensor.Tensor) error {
	rid, err := m.heap.Insert(table.Tuple{
		table.IntVal(int64(rb)),
		table.IntVal(int64(cb)),
		table.IntVal(int64(blk.Dim(0))),
		table.IntVal(int64(blk.Dim(1))),
		table.VecVal(blk.Data()),
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.rids[[2]int{rb, cb}] = rid
	m.mu.Unlock()
	return nil
}

// rid looks up the record id of block (rb, cb) under the matrix latch.
func (m *Matrix) rid(rb, cb int) (table.RID, bool) {
	m.mu.RLock()
	rid, ok := m.rids[[2]int{rb, cb}]
	m.mu.RUnlock()
	return rid, ok
}

// Block fetches block (rb, cb) through the buffer pool.
func (m *Matrix) Block(rb, cb int) (*tensor.Tensor, error) {
	rid, ok := m.rid(rb, cb)
	if !ok {
		return nil, fmt.Errorf("blocked: no block (%d,%d)", rb, cb)
	}
	t, err := m.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	r, c := int(t[2].Int), int(t[3].Int)
	if r*c != len(t[4].Vec) {
		return nil, fmt.Errorf("blocked: block (%d,%d) dims %dx%d but %d floats", rb, cb, r, c, len(t[4].Vec))
	}
	return tensor.FromSlice(t[4].Vec, r, c), nil
}

// blockInto fetches block (rb, cb) into the caller's reusable buffers:
// the tuple header and float scratch cycle through table.DecodeInto, and
// view is repointed at the decoded payload. This is the allocation-free
// fetch the multiply inner loop runs per k-step; the view is valid only
// until the next blockInto with the same buffers.
func (m *Matrix) blockInto(rb, cb int, view *tensor.Tensor, t table.Tuple, scratch []float32) (table.Tuple, []float32, error) {
	rid, ok := m.rid(rb, cb)
	if !ok {
		return t, scratch, fmt.Errorf("blocked: no block (%d,%d)", rb, cb)
	}
	t, scratch, err := m.heap.GetInto(rid, t, scratch)
	if err != nil {
		return t, scratch, err
	}
	r, c := int(t[2].Int), int(t[3].Int)
	if r*c != len(t[4].Vec) {
		return t, scratch, fmt.Errorf("blocked: block (%d,%d) dims %dx%d but %d floats", rb, cb, r, c, len(t[4].Vec))
	}
	view.Reuse2D(t[4].Vec, r, c)
	return t, scratch, nil
}

// Assemble reconstructs the dense tensor. Intended for verification and
// small results; it allocates the full matrix.
func (m *Matrix) Assemble() (*tensor.Tensor, error) {
	out := tensor.New(m.Rows, m.Cols)
	for rb := 0; rb < m.NumRowBlocks(); rb++ {
		for cb := 0; cb < m.NumColBlocks(); cb++ {
			blk, err := m.Block(rb, cb)
			if err != nil {
				return nil, err
			}
			out.SetBlock2D(blk, rb*m.BlockSize, cb*m.BlockSize)
		}
	}
	return out, nil
}

// blockBytes returns the working-set bytes of one full block.
func (m *Matrix) blockBytes() int64 {
	return int64(m.BlockSize) * int64(m.BlockSize) * 4
}

// mulScratch is one multiply worker's reusable state: the block accumulator,
// decode buffers for the two operand fetches and the tiles' packing panel.
// Workers draw it from a sync.Pool so the result blocks of one multiply
// recycle the same buffers instead of re-allocating per block.
type mulScratch struct {
	acc, a, b  tensor.Tensor
	accBuf     []float32
	aT, bT     table.Tuple
	aScr, bScr []float32
	panel      tensor.Panel
}

// MultiplyStreaming computes C = A × Bᵀ relation-centrically with a
// bounded working set. B is stored in the (out,in) layout models keep
// their weights in, so A (m,k) and B (n,k) share their column blocks and C
// is (m,n). Each result block (rb, cb) accumulates Σₖ A[rb,k]·B[cb,k]ᵀ in
// k order into a per-worker block buffer through tensor.DenseAddInto —
// Dense's kernels, continuing from the partial sums — and is written
// straight into the result relation. So C has tensor.Dense's bits on
// every column Dense sums in k order, and 0·Inf is NaN here as there.
// Operand blocks stream through the buffer pool (which spills and reloads
// as needed), so the memory footprint is a handful of blocks per worker no
// matter how large A, B, or C are — the property that lets the
// relation-centric plan complete the Table 3 workloads whose results
// exceed machine memory.
//
// Result blocks fan out across workers drawn from the shared core budget.
// Each block's k-loop is identical to the serial one, and blocks are
// addressed by coordinate, so the parallel result is bit-identical to the
// serial result.
//
// The budget, if non-nil, is charged three resident blocks (accumulator
// and two operands) per worker; if the reservation does not fit, the
// worker count sheds until it does, and a single worker's working set
// exceeding the budget returns memlimit.ErrOOM.
func MultiplyStreaming(pool *storage.BufferPool, a, b *Matrix, budget *memlimit.Budget) (*Matrix, error) {
	return multiplyStreaming(pool, a, b, budget, 0, nil)
}

// MultiplyStreamingCancel is MultiplyStreaming observing a cancellation
// token: every worker checks tok once per k-step (one block multiply), so a
// cancelled query stops within one block's work, releases its budget
// tokens, and returns the context's error.
func MultiplyStreamingCancel(pool *storage.BufferPool, a, b *Matrix, budget *memlimit.Budget, tok *lifecycle.Token) (*Matrix, error) {
	return multiplyStreaming(pool, a, b, budget, 0, tok)
}

// MultiplyStreamingWorkers is MultiplyStreaming with an explicit worker
// count: workers <= 0 sizes the fan-out from the shared core budget
// (internal/parallel); workers >= 1 forces exactly that many, which
// benchmark sweeps use to measure scaling.
func MultiplyStreamingWorkers(pool *storage.BufferPool, a, b *Matrix, budget *memlimit.Budget, workers int) (*Matrix, error) {
	return multiplyStreaming(pool, a, b, budget, workers, nil)
}

func multiplyStreaming(pool *storage.BufferPool, a, b *Matrix, budget *memlimit.Budget, workers int, tok *lifecycle.Token) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("blocked: multiply shape mismatch (%d,%d)×(%d,%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.BlockSize != b.BlockSize {
		return nil, fmt.Errorf("blocked: mismatched block sizes %d vs %d", a.BlockSize, b.BlockSize)
	}
	bs := a.BlockSize
	out, err := NewEmpty(pool, a.Rows, b.Rows, bs)
	if err != nil {
		return nil, err
	}
	ncb := out.NumColBlocks()
	ntasks := out.NumRowBlocks() * ncb

	// Size the fan-out: engine-level block workers draw tokens from the
	// same budget the tensor kernels do, so the two levels of parallelism
	// cannot multiply into oversubscription. (The tokens are held for the
	// whole multiply; kernels inside the workers then find the budget
	// drained and run serially — block-level parallelism wins, per Sec. 3.)
	shared := parallel.Default()
	extras := 0
	if workers <= 0 {
		want := min(shared.Total(), ntasks)
		extras = shared.TryAcquireUpTo(want - 1)
		workers = 1 + extras
	} else if workers > ntasks {
		workers = ntasks
	}
	if workers < 1 {
		workers = 1
	}
	releaseExtras := func() {
		if extras > 0 {
			shared.Release(extras)
			extras = 0
		}
	}

	// Charge the memory budget three resident blocks per worker, shedding
	// workers if the reservation does not fit.
	if budget != nil {
		for {
			res, rerr := budget.TryReserve(3 * int64(workers) * a.blockBytes())
			if rerr == nil {
				defer res.Close()
				break
			}
			if workers == 1 {
				releaseExtras()
				return nil, fmt.Errorf("blocked: multiply working set: %w", rerr)
			}
			workers = (workers + 1) / 2
			if extras > workers-1 {
				shared.Release(extras - (workers - 1))
				extras = workers - 1
			}
		}
	}

	scratch := sync.Pool{New: func() any {
		return &mulScratch{accBuf: make([]float32, bs*bs)}
	}}
	kBlocks := a.NumColBlocks()
	task := func(i int) error {
		rb, cb := i/ncb, i%ncb
		ws := scratch.Get().(*mulScratch)
		defer scratch.Put(ws)
		r, c := out.blockRows(rb), out.blockCols(cb)
		accData := ws.accBuf[:r*c]
		clear(accData)
		ws.acc.Reuse2D(accData, r, c)
		for k := 0; k < kBlocks; k++ {
			if err := tok.Err(); err != nil {
				return err
			}
			var err error
			ws.aT, ws.aScr, err = a.blockInto(rb, k, &ws.a, ws.aT, ws.aScr)
			if err != nil {
				return err
			}
			ws.bT, ws.bScr, err = b.blockInto(cb, k, &ws.b, ws.bT, ws.bScr)
			if err != nil {
				return err
			}
			tensor.DenseAddInto(&ws.acc, &ws.a, &ws.b, &ws.panel)
		}
		return out.AppendBlock(rb, cb, &ws.acc)
	}
	err = parallel.RunCancel(tok, workers, ntasks, task)
	releaseExtras()
	if err != nil {
		return nil, err
	}
	return out, nil
}
