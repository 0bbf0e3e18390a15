package blocked

import (
	"fmt"

	"tensorbase/internal/memlimit"
	"tensorbase/internal/storage"
	"tensorbase/internal/tensor"
)

// StoreIm2Col applies the spatial rewriting of Sec. 7.1 to a convolution
// input and stores the resulting patch matrix F — shape
// (n·outH·outW, kh·kw·c) — as a blocked relation, generating F one block row
// at a time so the full patch matrix is never resident. For the LandCover
// workload F has 6.25 million rows per image at paper scale, which is
// exactly why it must stream through the buffer pool.
func StoreIm2Col(pool *storage.BufferPool, input *tensor.Tensor, kh, kw, bs int) (*Matrix, error) {
	if input.Rank() != 4 {
		return nil, fmt.Errorf("blocked: StoreIm2Col requires NHWC input, got %v", input.Shape())
	}
	n, h, w, c := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	oh, ow := h-kh+1, w-kw+1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("blocked: kernel %dx%d larger than input %dx%d", kh, kw, h, w)
	}
	rows := n * oh * ow
	cols := kh * kw * c
	f, err := NewEmpty(pool, rows, cols, bs)
	if err != nil {
		return nil, err
	}
	in := input.Data()
	for rb := 0; rb < f.NumRowBlocks(); rb++ {
		r0 := rb * bs
		r1 := min(r0+bs, rows)
		slab := tensor.New(r1-r0, cols)
		for r := r0; r < r1; r++ {
			// Decompose the global patch index into (batch, y, x).
			b := r / (oh * ow)
			rem := r % (oh * ow)
			y := rem / ow
			x := rem % ow
			dst := slab.Row(r - r0)
			di := 0
			for ky := 0; ky < kh; ky++ {
				srcOff := ((b*h+y+ky)*w + x) * c
				copy(dst[di:di+kw*c], in[srcOff:srcOff+kw*c])
				di += kw * c
			}
		}
		for cb := 0; cb < f.NumColBlocks(); cb++ {
			blk := slab.Slice2D(0, r1-r0, cb*bs, (cb+1)*bs)
			if err := f.AppendBlock(rb, cb, blk); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// Conv2DRelational executes a stride-1, no-padding convolution as the
// relation-centric plan: spatial-rewrite the input into a blocked patch
// matrix F, chunk the flattened (outC, kh·kw·c) kernel K into blocks, and
// run the blocked matrix multiplication F × Kᵀ. The result is the blocked
// (n·outH·outW, outC) feature-map matrix.
func Conv2DRelational(pool *storage.BufferPool, input, kernel *tensor.Tensor, bs int, budget *memlimit.Budget) (*Matrix, error) {
	if kernel.Rank() != 4 {
		return nil, fmt.Errorf("blocked: kernel must be OHWI, got %v", kernel.Shape())
	}
	kh, kw := kernel.Dim(1), kernel.Dim(2)
	f, err := StoreIm2Col(pool, input, kh, kw, bs)
	if err != nil {
		return nil, err
	}
	kb, err := Store(pool, tensor.FlattenKernel(kernel), bs)
	if err != nil {
		return nil, err
	}
	return MultiplyStreaming(pool, f, kb, budget)
}
