package tensor

import "fmt"

// Im2Col applies the spatial rewriting used by the relation-centric
// representation: each output position of the convolution becomes one row of
// a patch matrix F of shape (n·outH·outW, kh·kw·c), so the convolution
// reduces to the matrix product F × Kᵀ with K the (oc, kh·kw·c) flattened
// kernel. For the 1×1 kernels of Table 2 this is exactly the paper's
// "flatten each image into a matrix" transformation, and F is the input
// itself reshaped: it shares the input's data rather than copying it.
func Im2Col(input *Tensor, kh, kw int) *Tensor {
	if input.Rank() != 4 {
		panic("tensor: Im2Col requires NHWC input")
	}
	n, h, w, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oh, ow := h-kh+1, w-kw+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col kernel %dx%d larger than input %dx%d", kh, kw, h, w))
	}
	if kh == 1 && kw == 1 {
		return input.Reshape(n*h*w, c)
	}
	cols := kh * kw * c
	out := New(n*oh*ow, cols)
	row := 0
	for b := 0; b < n; b++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				dst := out.data[row*cols : (row+1)*cols]
				di := 0
				for ky := 0; ky < kh; ky++ {
					srcOff := ((b*h+y+ky)*w + x) * c
					copy(dst[di:di+kw*c], input.data[srcOff:srcOff+kw*c])
					di += kw * c
				}
				row++
			}
		}
	}
	return out
}

// FlattenKernel reshapes an OHWI kernel into the (oc, kh·kw·c) matrix K used
// by the im2col matmul form. The data is shared with the input tensor.
func FlattenKernel(kernel *Tensor) *Tensor {
	if kernel.Rank() != 4 {
		panic("tensor: FlattenKernel requires an OHWI kernel")
	}
	oc := kernel.shape[0]
	return kernel.Reshape(oc, kernel.shape[1]*kernel.shape[2]*kernel.shape[3])
}
