package tensor

import "fmt"

// Conv2D is the direct-loop oracle for a 2-D convolution with stride 1 and
// no padding — the configuration used by every convolutional model in the
// paper's evaluation (Table 2). Input is NHWC (batch, height, width,
// channels) and the kernel is OHWI (outChannels, kh, kw, inChannels). The
// output is NHWC with outH = h-kh+1 and outW = w-kw+1. Each sum runs in
// (ky, kx, ch) order, the order of a flattened patch row, with every
// product rounded to float32, so it has the bits of Conv2DIm2Col on every
// output channel Dense sums in k order.
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
								sum += float32(input.data[inOff+ch] * kernel.data[kOff+ch])
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

// Conv2DIm2Col is the convolution as nn.Conv2D runs it: the im2col spatial
// rewriting, then Dense against the flattened kernel — the form the
// relation-centric representation converts into a join + aggregation.
func Conv2DIm2Col(input, kernel *Tensor) *Tensor {
	n, h, w, _, oc, kh, kw := convDims(input, kernel)
	oh, ow := h-kh+1, w-kw+1
	prod := Dense(Im2Col(input, kh, kw), FlattenKernel(kernel), nil, false) // (n·oh·ow, oc)
	return prod.Reshape(n, oh, ow, oc)
}
