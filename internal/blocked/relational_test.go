package blocked

import (
	"fmt"

	"tensorbase/internal/exec"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

// scan returns a relational scan over m's block relation.
func (m *Matrix) scan() exec.Operator { return exec.NewHeapScan(m.heap) }

// MultiplyRelational is the oracle for MultiplyStreaming: it computes
// C = A × Bᵀ, B in the (out,in) layout, by running the literal relational
// plan over the block relations:
//
//	C = γ_{A.rb,B.rb; MatMulSum(data)}( A ⋈_{A.cb = B.cb} B )
//
// i.e. a hash join of the block relations on the shared dimension followed
// by a grouped user-defined aggregate whose fold adds each joined block
// pair's product into its group's result block. The aggregate is
// hash-partitioned on the result coordinates with one worker per partition
// (exec.PartitionedAgg), which keeps every group's fold order — and
// therefore the result — identical to serial execution. MultiplyStreaming
// is this plan's co-partitioned optimisation.
func MultiplyRelational(pool *storage.BufferPool, a, b *Matrix) (*Matrix, error) {
	return MultiplyRelationalWorkers(pool, a, b, 0)
}

// MultiplyRelationalWorkers is MultiplyRelational with an explicit
// aggregate worker count (<= 0 sizes from the shared core budget).
func MultiplyRelationalWorkers(pool *storage.BufferPool, a, b *Matrix, workers int) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("blocked: multiply shape mismatch (%d,%d)×(%d,%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.BlockSize != b.BlockSize {
		return nil, fmt.Errorf("blocked: mismatched block sizes %d vs %d", a.BlockSize, b.BlockSize)
	}
	join, err := exec.NewHashJoin(a.scan(), b.scan(), "cb", "cb")
	if err != nil {
		return nil, err
	}
	// Join output columns: rb cb r c data | rb_2 cb_2 r_2 c_2 data_2.
	fold := func(acc []float32, t table.Tuple) ([]float32, error) {
		ar, ac := int(t[2].Int), int(t[3].Int)
		br, bc := int(t[7].Int), int(t[8].Int)
		if ac != bc {
			return nil, fmt.Errorf("blocked: inner block dims %d vs %d", ac, bc)
		}
		if acc == nil {
			acc = make([]float32, ar*br)
		}
		tensor.DenseAddInto(
			tensor.FromSlice(acc, ar, br),
			tensor.FromSlice(t[4].Vec, ar, ac),
			tensor.FromSlice(t[9].Vec, br, bc),
			new(tensor.Panel),
		)
		return acc, nil
	}
	agg, err := exec.NewPartitionedAggregate(join,
		[]string{"rb", "rb_2", "r", "r_2"},
		[]exec.AggSpec{{Kind: exec.VecFold, Fold: fold, As: "data"}},
		workers)
	if err != nil {
		return nil, err
	}
	rows, err := exec.Collect(agg)
	if err != nil {
		return nil, err
	}
	out, err := NewEmpty(pool, a.Rows, b.Rows, a.BlockSize)
	if err != nil {
		return nil, err
	}
	for _, t := range rows {
		blk := tensor.FromSlice(t[4].Vec, int(t[2].Int), int(t[3].Int))
		if err := out.AppendBlock(int(t[0].Int), int(t[1].Int), blk); err != nil {
			return nil, err
		}
	}
	return out, nil
}
