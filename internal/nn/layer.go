// Package nn implements the model families the paper's evaluation serves —
// feed-forward networks (Table 1) and stride-1/no-padding convolutional
// networks (Table 2) — together with the per-operator memory estimation rule
// that drives the adaptive optimizer (Sec. 7.1: the footprint of a matrix
// multiplication with shapes (m,k) and (k,n) is estimated as
// m·k + k·n + m·n elements).
//
// Models are sequences of layers. Every layer reports its output shape and
// memory estimate symbolically, so the planner can reason about a model
// without running it, and executes eagerly over tensor.Tensor values.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"tensorbase/internal/tensor"
)

// Layer is one operator in a model: a shape-checked, eager tensor
// transformation with a symbolic memory estimate.
type Layer interface {
	// Name identifies the operator kind (e.g. "linear", "conv2d", "relu").
	Name() string
	// OutShape returns the output shape for a given input shape, or an
	// error if the input shape is incompatible. Shapes exclude no batch
	// dimension: the batch is always dimension 0.
	OutShape(in []int) ([]int, error)
	// MemEstimate returns the estimated working-set bytes for this
	// operator on the given input shape: input + parameters + output,
	// following the paper's rule.
	MemEstimate(in []int) int64
	// ParamBytes returns the size of the layer's parameters in bytes.
	ParamBytes() int64
	// Forward applies the operator.
	Forward(x *tensor.Tensor) *tensor.Tensor
}

const bytesPerElem = 4 // float32

func volume(shape []int) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

// Linear is a fully connected layer computing y = x·Wᵀ + b with W stored in
// (out, in) layout, matching how the paper describes weight matrices
// (e.g. Amazon-14k-FC's W is 1024×597540).
type Linear struct {
	W *tensor.Tensor // (out, in)
	B *tensor.Tensor // (out), may be nil
}

// NewLinear returns a Linear layer with Xavier-uniform weights drawn from
// rng and a zero bias.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	w := tensor.New(out, in)
	bound := float32(math.Sqrt(6 / float64(in+out)))
	for i := range w.Data() {
		w.Data()[i] = (rng.Float32()*2 - 1) * bound
	}
	return &Linear{W: w, B: tensor.New(out)}
}

// In returns the input width.
func (l *Linear) In() int { return l.W.Dim(1) }

// Out returns the output width.
func (l *Linear) Out() int { return l.W.Dim(0) }

// Name implements Layer.
func (l *Linear) Name() string { return "linear" }

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("nn: linear wants 2-D input, got %v", in)
	}
	if in[1] != l.In() {
		return nil, fmt.Errorf("nn: linear input width %d, want %d", in[1], l.In())
	}
	return []int{in[0], l.Out()}, nil
}

// MemEstimate implements Layer with the paper's m·k + k·n + m·n rule.
func (l *Linear) MemEstimate(in []int) int64 {
	m := int64(in[0])
	k := int64(l.In())
	n := int64(l.Out())
	return (m*k + k*n + m*n) * bytesPerElem
}

// ParamBytes implements Layer.
func (l *Linear) ParamBytes() int64 {
	b := l.W.Bytes()
	if l.B != nil {
		b += l.B.Bytes()
	}
	return b
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor { return tensor.Dense(x, l.W, l.B, false) }

// denseInto implements denseLayer.
func (l *Linear) denseInto(out, x *tensor.Tensor, relu bool) {
	tensor.DenseInto(out, x, l.W, l.B, relu)
}

// Conv2D is a stride-1, no-padding convolution with an OHWI kernel,
// matching Table 2's configuration.
type Conv2D struct {
	K *tensor.Tensor // (outC, kh, kw, inC)
}

// NewConv2D returns a Conv2D layer with Xavier-uniform weights drawn from rng.
func NewConv2D(rng *rand.Rand, outC, kh, kw, inC int) *Conv2D {
	k := tensor.New(outC, kh, kw, inC)
	fanIn := kh * kw * inC
	bound := float32(math.Sqrt(6 / float64(fanIn+outC)))
	for i := range k.Data() {
		k.Data()[i] = (rng.Float32()*2 - 1) * bound
	}
	return &Conv2D{K: k}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 4 {
		return nil, fmt.Errorf("nn: conv2d wants NHWC input, got %v", in)
	}
	kh, kw, inC := c.K.Dim(1), c.K.Dim(2), c.K.Dim(3)
	if in[3] != inC {
		return nil, fmt.Errorf("nn: conv2d input channels %d, want %d", in[3], inC)
	}
	oh, ow := in[1]-kh+1, in[2]-kw+1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv2d kernel %dx%d larger than input %dx%d", kh, kw, in[1], in[2])
	}
	return []int{in[0], oh, ow, c.K.Dim(0)}, nil
}

// MemEstimate implements Layer: input + im2col patch matrix + kernel +
// output bytes. A 1×1 kernel's patch matrix is its input reshaped, so it
// adds nothing there.
func (c *Conv2D) MemEstimate(in []int) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	elems := volume(in) + int64(c.K.Len()) + volume(out)
	if kh, kw := c.K.Dim(1), c.K.Dim(2); kh*kw > 1 {
		rows := int64(out[0]) * int64(out[1]) * int64(out[2])
		elems += rows * int64(kh*kw*c.K.Dim(3))
	}
	return elems * bytesPerElem
}

// ParamBytes implements Layer.
func (c *Conv2D) ParamBytes() int64 { return c.K.Bytes() }

// Forward implements Layer: the spatial rewriting (tensor.Im2Col) into a
// patch matrix, then tensor.Dense against the (outC, kh·kw·inC) flattened
// kernel — the product the relation-centric plan runs over blocks. For a
// 1×1 kernel the patch matrix is the input itself.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	kh, kw := c.K.Dim(1), c.K.Dim(2)
	f := tensor.Im2Col(x, kh, kw) // (n·oh·ow, kh·kw·inC)
	y := tensor.Dense(f, tensor.FlattenKernel(c.K), nil, false)
	return y.Reshape(x.Dim(0), x.Dim(1)-kh+1, x.Dim(2)-kw+1, c.K.Dim(0))
}

// ReLU applies max(0,x).
type ReLU struct{}

// Name implements Layer.
func (ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// MemEstimate implements Layer: in-place, so input only.
func (ReLU) MemEstimate(in []int) int64 { return volume(in) * bytesPerElem }

// ParamBytes implements Layer.
func (ReLU) ParamBytes() int64 { return 0 }

// Forward implements Layer.
func (ReLU) Forward(x *tensor.Tensor) *tensor.Tensor { return tensor.ReLUInto(x) }

// Sigmoid applies the logistic function.
type Sigmoid struct{}

// Name implements Layer.
func (Sigmoid) Name() string { return "sigmoid" }

// OutShape implements Layer.
func (Sigmoid) OutShape(in []int) ([]int, error) { return in, nil }

// MemEstimate implements Layer.
func (Sigmoid) MemEstimate(in []int) int64 { return volume(in) * bytesPerElem }

// ParamBytes implements Layer.
func (Sigmoid) ParamBytes() int64 { return 0 }

// Forward implements Layer.
func (Sigmoid) Forward(x *tensor.Tensor) *tensor.Tensor { return tensor.SigmoidInto(x) }

// Softmax applies a row-wise softmax over 2-D input.
type Softmax struct{}

// Name implements Layer.
func (Softmax) Name() string { return "softmax" }

// OutShape implements Layer.
func (Softmax) OutShape(in []int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("nn: softmax wants 2-D input, got %v", in)
	}
	return in, nil
}

// MemEstimate implements Layer.
func (Softmax) MemEstimate(in []int) int64 { return volume(in) * bytesPerElem }

// ParamBytes implements Layer.
func (Softmax) ParamBytes() int64 { return 0 }

// Forward implements Layer.
func (Softmax) Forward(x *tensor.Tensor) *tensor.Tensor { return tensor.SoftmaxRowsInto(x) }

// Flatten collapses all non-batch dimensions into one.
type Flatten struct{}

// Name implements Layer.
func (Flatten) Name() string { return "flatten" }

// OutShape implements Layer.
func (Flatten) OutShape(in []int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("nn: flatten wants rank >= 2, got %v", in)
	}
	rest := 1
	for _, d := range in[1:] {
		rest *= d
	}
	return []int{in[0], rest}, nil
}

// MemEstimate implements Layer.
func (Flatten) MemEstimate(in []int) int64 { return volume(in) * bytesPerElem }

// ParamBytes implements Layer.
func (Flatten) ParamBytes() int64 { return 0 }

// Forward implements Layer.
func (Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	rest := x.Len() / x.Dim(0)
	return x.Reshape(x.Dim(0), rest)
}
