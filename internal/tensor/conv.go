package tensor

import "fmt"

// Conv2D computes a 2-D convolution with stride 1 and no padding — the
// configuration used by every convolutional model in the paper's evaluation
// (Table 2). Input is NHWC (batch, height, width, channels) and the kernel is
// OHWI (outChannels, kh, kw, inChannels). The output is NHWC with
// outH = h-kh+1 and outW = w-kw+1.
func Conv2D(input, kernel *Tensor) *Tensor {
	n, h, w, c, oc, kh, kw := convDims(input, kernel)
	oh, ow := h-kh+1, w-kw+1
	out := New(n, oh, ow, oc)
	for b := 0; b < n; b++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				for o := 0; o < oc; o++ {
					var sum float32
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							inOff := ((b*h+y+ky)*w + x + kx) * c
							kOff := ((o*kh+ky)*kw + kx) * c
							for ch := 0; ch < c; ch++ {
								sum += float32(input.data[inOff+ch] * kernel.data[kOff+ch]) // rounded: no FMA (see axpyUnrolled)
							}
						}
					}
					out.data[((b*oh+y)*ow+x)*oc+o] = sum
				}
			}
		}
	}
	return out
}

func convDims(input, kernel *Tensor) (n, h, w, c, oc, kh, kw int) {
	if input.Rank() != 4 || kernel.Rank() != 4 {
		panic("tensor: Conv2D requires NHWC input and OHWI kernel")
	}
	n, h, w, c = input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, kh, kw = kernel.shape[0], kernel.shape[1], kernel.shape[2]
	if kernel.shape[3] != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %d, kernel %d", c, kernel.shape[3]))
	}
	if kh > h || kw > w {
		panic(fmt.Sprintf("tensor: Conv2D kernel %dx%d larger than input %dx%d", kh, kw, h, w))
	}
	return
}

// Im2Col applies the spatial rewriting used by the relation-centric
// representation: each output position of the convolution becomes one row of
// a patch matrix F of shape (n·outH·outW, kh·kw·c), so the convolution
// reduces to the matrix product F × Kᵀ with K the (oc, kh·kw·c) flattened
// kernel. For the 1×1 kernels of Table 2 this is exactly the paper's
// "flatten each image into a matrix" transformation.
func Im2Col(input *Tensor, kh, kw int) *Tensor {
	if input.Rank() != 4 {
		panic("tensor: Im2Col requires NHWC input")
	}
	n, h, w, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oh, ow := h-kh+1, w-kw+1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col kernel %dx%d larger than input %dx%d", kh, kw, h, w))
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

// Conv2DIm2Col computes the same convolution as Conv2D via the im2col
// spatial rewriting followed by a matrix multiplication — the form the
// relation-centric representation converts into a join + aggregation.
func Conv2DIm2Col(input, kernel *Tensor) *Tensor {
	n, h, w, _, oc, kh, kw := convDims(input, kernel)
	oh, ow := h-kh+1, w-kw+1
	f := Im2Col(input, kh, kw)
	k := FlattenKernel(kernel)
	prod := MatMulTransB(f, k) // (n·oh·ow, oc)
	return prod.Reshape(n, oh, ow, oc)
}
