package nn

import (
	"fmt"
	"math"

	"tensorbase/internal/tensor"
)

// Resident quantized execution: the storage optimizer's compressed model
// versions (Sec. 4) are only worth serving if the int8 weights stay int8 at
// run time. QuantizeResident builds a model's twin whose Linear/Conv2D
// layers hold their weights as int8 + one symmetric scale per output
// channel, packed as tensor.Q8Pairs (int16 pairs, 2 bytes a weight), and
// quantize their activations per row on entry so the forward pass runs the
// int8 GEMM (tensor.DenseQ8) instead of the f32 kernel.

// QuantizeResident returns the int8-resident twin of m, built straight
// from its f32 tensors. Linear and Conv2D become QuantLinear and
// QuantConv2D; biases stay exact f32 and, like the parameter-free layers,
// are shared with m. Any other layer type is an error, and so is a
// non-finite weight: NaN has no int8 image and ±Inf would scale its whole
// channel to zero, so the twin would answer where m answers NaN. A model
// without a twin is served in f32 only.
func QuantizeResident(m *Model) (*Model, error) {
	layers := make([]Layer, len(m.Layers))
	for i, l := range m.Layers {
		var err error
		switch l := l.(type) {
		case *Linear:
			var g qGemm
			if g, err = newQGemm(l.W); err == nil {
				layers[i] = &QuantLinear{gemm: g, B: l.B}
			}
		case *Conv2D:
			var g qGemm
			if g, err = newQGemm(l.K); err == nil {
				layers[i] = &QuantConv2D{kh: l.K.Dim(1), kw: l.K.Dim(2), inC: l.K.Dim(3), gemm: g}
			}
		case ReLU, Sigmoid, Softmax, Flatten:
			layers[i] = l
		default:
			err = fmt.Errorf("unsupported layer type %T", l)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: quantize layer %d (%s): %w", i, l.Name(), err)
		}
	}
	return NewModel(m.ModelName, m.InShape, layers...)
}

// q8MinN is the narrowest output width the int8 GEMM path serves.
// Quantizing the activation batch costs O(m·k) no matter how small n is;
// below this width the int8 GEMM is too tiny to amortise that pass (a
// 2-class head over a 256-wide hidden layer would spend more time
// quantizing its input than the f32 kernel spends on the whole product).
// Such layers keep a dequantized f32 copy of their already
// quantization-rounded weights and run the f32 kernel — same resident
// int8 source of truth, cheaper execution.
const q8MinN = 8

// qGemm holds the weight side of an int8 GEMM: n output channels of k
// weights as int16 pairs. Narrow layers (n < q8MinN) hold a dequantized f32
// weight copy in wf instead.
type qGemm struct {
	k, n  int
	pairs *tensor.Q8Pairs
	wf    *tensor.Tensor // (n,k) dequantized weights when n < q8MinN, else nil
}

// newQGemm quantizes w, whose dim-0 slices are its output channels, to
// int8 with one symmetric scale (max|w| / 127) per channel.
func newQGemm(w *tensor.Tensor) (qGemm, error) {
	n := w.Dim(0)
	k := w.Len() / max(n, 1)
	data := w.Data()
	w8 := make([]int8, len(data))
	scales := make([]float32, n)
	for c := range scales {
		var maxAbs float32
		for _, v := range data[c*k : (c+1)*k] {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return qGemm{}, fmt.Errorf("non-finite weight %v in output channel %d", v, c)
			}
			maxAbs = max(maxAbs, float32(math.Abs(float64(v))))
		}
		s := maxAbs / 127
		if s == 0 { // an all-zero (or all-subnormal) channel: any scale rounds it to zeros
			s = 1
		}
		scales[c] = s
		for p, v := range data[c*k : (c+1)*k] {
			w8[c*k+p] = int8(max(-127, min(127, math.Round(float64(v/s)))))
		}
	}
	g := qGemm{k: k, n: n}
	if n >= q8MinN {
		g.pairs = tensor.NewQ8Pairs(w8, scales, n, k)
		return g, nil
	}
	g.wf = tensor.New(n, k)
	for i, q := range w8 {
		g.wf.Data()[i] = float32(q) * scales[i/k]
	}
	return g, nil
}

// apply runs the (m,k) f32 batch x through the layer's GEMM, with bias
// (nil for none) and ReLU folded in, into a fresh (m,n) tensor.
func (g *qGemm) apply(x, bias *tensor.Tensor, relu bool) *tensor.Tensor {
	out := tensor.New(x.Dim(0), g.n)
	g.applyInto(out, x, bias, relu)
	return out
}

// applyInto is apply writing into out. Per-ROW activation scales make each
// output row a function of that row alone, so batch composition (miss
// compaction, pipelining, caching) cannot change any row's bits.
func (g *qGemm) applyInto(out, x, bias *tensor.Tensor, relu bool) {
	if g.wf != nil {
		// Narrow layer: f32 kernel over the dequantized weight copy. Row i
		// of the product reads only row i of x, so batch-composition
		// bit-identity holds exactly as it does for the int8 path.
		tensor.DenseInto(out, x, g.wf, bias, relu)
		return
	}
	tensor.DenseQ8Into(out, x, g.pairs, bias, relu)
}

// paramBytes is the resident footprint of the weights — int16 pairs for
// wide layers, the dequantized f32 copy for narrow ones.
func (g *qGemm) paramBytes() int64 {
	if g.wf != nil {
		return g.wf.Bytes() + int64(g.n)*4
	}
	return g.pairs.Bytes()
}

// QuantLinear is a fully connected layer whose weights stay resident as
// int8 with per-output-channel scales. Activations are quantized per row
// on entry; the bias stays exact f32.
type QuantLinear struct {
	gemm qGemm
	B    *tensor.Tensor // (out), may be nil
}

// In returns the input width.
func (l *QuantLinear) In() int { return l.gemm.k }

// Out returns the output width.
func (l *QuantLinear) Out() int { return l.gemm.n }

// Name implements Layer.
func (l *QuantLinear) Name() string { return "linear.q8" }

// OutShape implements Layer.
func (l *QuantLinear) OutShape(in []int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("nn: linear wants 2-D input, got %v", in)
	}
	if in[1] != l.In() {
		return nil, fmt.Errorf("nn: linear input width %d, want %d", in[1], l.In())
	}
	return []int{in[0], l.Out()}, nil
}

// MemEstimate implements Layer with the paper's m·k + k·n + m·n rule; the
// k·n weight term is int16 pairs so it counts a half, and the quantized
// activation image roughly doubles the m·k term.
func (l *QuantLinear) MemEstimate(in []int) int64 {
	m, k, n := int64(in[0]), int64(l.In()), int64(l.Out())
	return (2*m*k+m*n)*bytesPerElem + 2*k*n
}

// ParamBytes implements Layer.
func (l *QuantLinear) ParamBytes() int64 {
	b := l.gemm.paramBytes()
	if l.B != nil {
		b += l.B.Bytes()
	}
	return b
}

// Forward implements Layer.
func (l *QuantLinear) Forward(x *tensor.Tensor) *tensor.Tensor { return l.gemm.apply(x, l.B, false) }

// denseInto implements denseLayer.
func (l *QuantLinear) denseInto(out, x *tensor.Tensor, relu bool) {
	l.gemm.applyInto(out, x, l.B, relu)
}

// QuantConv2D is a stride-1, no-padding convolution whose OHWI kernel stays
// resident as int8 with per-output-channel scales. It always executes via
// im2col: the patch matrix rows are quantized per row and hit the int8
// GEMM. Each patch row reads only its own sample's pixels, so per-row
// activation scales keep the quantized convolution batch-composition
// independent, exactly like QuantLinear.
type QuantConv2D struct {
	kh, kw, inC int
	gemm        qGemm // n = outC, k = kh·kw·inC
}

// Name implements Layer.
func (c *QuantConv2D) Name() string { return "conv2d.q8" }

// OutShape implements Layer.
func (c *QuantConv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 4 {
		return nil, fmt.Errorf("nn: conv2d wants NHWC input, got %v", in)
	}
	if in[3] != c.inC {
		return nil, fmt.Errorf("nn: conv2d input channels %d, want %d", in[3], c.inC)
	}
	oh, ow := in[1]-c.kh+1, in[2]-c.kw+1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv2d kernel %dx%d larger than input %dx%d", c.kh, c.kw, in[1], in[2])
	}
	return []int{in[0], oh, ow, c.gemm.n}, nil
}

// MemEstimate implements Layer: im2col patch matrix + kernel + output.
func (c *QuantConv2D) MemEstimate(in []int) int64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	rows := int64(out[0]) * int64(out[1]) * int64(out[2])
	return (2*rows*int64(c.gemm.k)+volume(out))*bytesPerElem + 2*int64(c.gemm.n)*int64(c.gemm.k)
}

// ParamBytes implements Layer.
func (c *QuantConv2D) ParamBytes() int64 { return c.gemm.paramBytes() }

// Forward implements Layer.
func (c *QuantConv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h-c.kh+1, w-c.kw+1
	f := tensor.Im2Col(x, c.kh, c.kw) // (n·oh·ow, kh·kw·inC)
	y := c.gemm.apply(f, nil, false)
	return y.Reshape(n, oh, ow, c.gemm.n)
}
