package blocked

import (
	"fmt"

	"tensorbase/internal/storage"
	"tensorbase/internal/tensor"
)

// MultiplyRelational is the oracle for MultiplyStreaming: it computes
// C = A × Bᵀ, B in the (out,in) layout, as the relational plan over the
// block relations written out as nested loops:
//
//	C = γ_{A.rb,B.rb; Σ}( A ⋈_{A.cb = B.cb} B )
//
// Each (A.rb, B.rb) result block joins A's and B's blocks on the shared cb
// and sums their products in k order with a plain scalar loop, so the
// oracle shares no kernel with the multiply it checks.
func MultiplyRelational(pool *storage.BufferPool, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("blocked: multiply shape mismatch (%d,%d)×(%d,%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.BlockSize != b.BlockSize {
		return nil, fmt.Errorf("blocked: mismatched block sizes %d vs %d", a.BlockSize, b.BlockSize)
	}
	out, err := NewEmpty(pool, a.Rows, b.Rows, a.BlockSize)
	if err != nil {
		return nil, err
	}
	for ar := 0; ar < a.NumRowBlocks(); ar++ {
		for br := 0; br < b.NumRowBlocks(); br++ {
			acc := tensor.New(a.blockRows(ar), b.blockRows(br))
			for cb := 0; cb < a.NumColBlocks(); cb++ {
				ab, err := a.Block(ar, cb)
				if err != nil {
					return nil, err
				}
				bb, err := b.Block(br, cb)
				if err != nil {
					return nil, err
				}
				if ab.Dim(1) != bb.Dim(1) {
					return nil, fmt.Errorf("blocked: inner block dims %d vs %d", ab.Dim(1), bb.Dim(1))
				}
				for i := 0; i < ab.Dim(0); i++ {
					for j := 0; j < bb.Dim(0); j++ {
						s := acc.At(i, j)
						for c := 0; c < ab.Dim(1); c++ {
							s += ab.At(i, c) * bb.At(j, c)
						}
						acc.Set(s, i, j)
					}
				}
			}
			if err := out.AppendBlock(ar, br, acc); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
