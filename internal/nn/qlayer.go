package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"tensorbase/internal/tensor"
)

// Resident quantized execution: the storage optimizer's compressed model
// versions (Sec. 4) are only worth serving if the int8 weights stay int8 at
// run time. LoadQuantizedResident builds a model whose Linear/Conv2D layers
// hold their weights as int8 + per-output-channel scales — one quarter the
// weight bytes — held as tensor.Q8Pairs (int16 pairs, 2 bytes a weight),
// and quantize their activations per batch on entry so the forward pass
// runs the int8 GEMM (tensor.DenseQ8) instead of the f32 kernel.

// QuantTensor is an int8-quantized tensor: Shape, one scale per dim-0
// slice (output channel), and the row-major int8 payload.
type QuantTensor struct {
	Shape  []int
	Scales []float32 // len = Shape[0]
	Data   []int8
}

// Dequantize expands the tensor back to float32.
func (q *QuantTensor) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	stride := 1
	if q.Shape[0] != 0 {
		stride = t.Len() / q.Shape[0]
	}
	data := t.Data()
	for i, v := range q.Data {
		data[i] = float32(v) * q.Scales[i/stride]
	}
	return t
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

func newQGemm(w8 []int8, scales []float32, n, k int) qGemm {
	g := qGemm{k: k, n: n}
	if n < q8MinN {
		g.wf = tensor.New(n, k)
		data := g.wf.Data()
		for j := 0; j < n; j++ {
			s := scales[j]
			for p := 0; p < k; p++ {
				data[j*k+p] = float32(w8[j*k+p]) * s
			}
		}
		return g
	}
	g.pairs = tensor.NewQ8Pairs(w8, scales, n, k)
	return g
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

// NewQuantLinear builds the resident layer from a quantized (out,in)
// weight tensor and an optional exact bias.
func NewQuantLinear(w *QuantTensor, b *tensor.Tensor) (*QuantLinear, error) {
	if len(w.Shape) != 2 {
		return nil, fmt.Errorf("nn: quant linear weight must be 2-D, got %v", w.Shape)
	}
	out, in := w.Shape[0], w.Shape[1]
	if b != nil && b.Len() != out {
		return nil, fmt.Errorf("nn: quant linear bias length %d, want %d", b.Len(), out)
	}
	return &QuantLinear{gemm: newQGemm(w.Data, w.Scales, out, in), B: b}, nil
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

// NewQuantConv2D builds the resident layer from a quantized OHWI kernel.
func NewQuantConv2D(k *QuantTensor) (*QuantConv2D, error) {
	if len(k.Shape) != 4 {
		return nil, fmt.Errorf("nn: quant conv2d kernel must be 4-D, got %v", k.Shape)
	}
	outC, kh, kw, inC := k.Shape[0], k.Shape[1], k.Shape[2], k.Shape[3]
	return &QuantConv2D{
		kh: kh, kw: kw, inC: inC,
		gemm: newQGemm(k.Data, k.Scales, outC, kh*kw*inC),
	}, nil
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

// LoadQuantizedResident reads a TBQ1 model keeping the weights quantized:
// Linear/Conv2D layers become QuantLinear/QuantConv2D running the int8
// GEMM, everything else loads as usual.
func LoadQuantizedResident(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(quantMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != quantMagic {
		return nil, fmt.Errorf("nn: bad magic %q, want %q", magic, quantMagic)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	inShape, err := readShape(br)
	if err != nil {
		return nil, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if count > 1<<16 {
		return nil, fmt.Errorf("nn: implausible layer count %d", count)
	}
	layers := make([]Layer, 0, count)
	for i := uint64(0); i < count; i++ {
		l, err := readQuantLayerResident(br)
		if err != nil {
			return nil, fmt.Errorf("nn: reading quantized layer %d: %w", i, err)
		}
		layers = append(layers, l)
	}
	return NewModel(name, inShape, layers...)
}

func readQuantLayerResident(br *bufio.Reader) (Layer, error) {
	tag, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagLinear:
		w, err := readQuantTensorRaw(br)
		if err != nil {
			return nil, err
		}
		hasBias, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		var b *tensor.Tensor
		if hasBias == 1 {
			if b, err = readTensor(br); err != nil {
				return nil, err
			}
		}
		return NewQuantLinear(w, b)
	case tagConv2D:
		k, err := readQuantTensorRaw(br)
		if err != nil {
			return nil, err
		}
		if _, err := br.ReadByte(); err != nil { // im2col flag: always im2col here
			return nil, err
		}
		return NewQuantConv2D(k)
	case tagReLU:
		return ReLU{}, nil
	case tagSigmoid:
		return Sigmoid{}, nil
	case tagSoftmax:
		return Softmax{}, nil
	case tagFlatten:
		return Flatten{}, nil
	default:
		return nil, fmt.Errorf("unknown layer tag %d", tag)
	}
}

// QuantizeResident returns the int8-resident twin of m via an in-memory
// TBQ1 round trip, so the resident model is exactly what serving a saved
// quantized version would load.
func QuantizeResident(m *Model) (*Model, error) {
	var buf bytes.Buffer
	if err := SaveQuantized(&buf, m); err != nil {
		return nil, err
	}
	return LoadQuantizedResident(&buf)
}
