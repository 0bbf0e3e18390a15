package nn

import (
	"fmt"

	"tensorbase/internal/tensor"
)

// Model is a named sequence of layers executed front to back.
type Model struct {
	ModelName string
	Layers    []Layer
	// InShape is the per-sample input shape with a symbolic batch
	// dimension of 1 in position 0 (e.g. {1, 28} for Fraud-FC,
	// {1, 112, 112, 64} for DeepBench-CONV1).
	InShape []int
}

// NewModel returns a model over the given layers and validates that the
// layer shapes compose.
func NewModel(name string, inShape []int, layers ...Layer) (*Model, error) {
	m := &Model{ModelName: name, Layers: layers, InShape: append([]int(nil), inShape...)}
	if _, err := m.OutShape(1); err != nil {
		return nil, fmt.Errorf("nn: model %q: %w", name, err)
	}
	return m, nil
}

// MustModel is NewModel that panics on error, for static model-zoo tables.
func MustModel(name string, inShape []int, layers ...Layer) *Model {
	m, err := NewModel(name, inShape, layers...)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the model's name.
func (m *Model) Name() string { return m.ModelName }

// batchShape returns InShape with the batch dimension set to n.
func (m *Model) batchShape(n int) []int {
	s := append([]int(nil), m.InShape...)
	s[0] = n
	return s
}

// OutShape returns the output shape for a batch of the given size.
func (m *Model) OutShape(batch int) ([]int, error) {
	shape := m.batchShape(batch)
	for i, l := range m.Layers {
		next, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Name(), err)
		}
		shape = next
	}
	return shape, nil
}

// Forward runs the full model over a batch.
func (m *Model) Forward(x *tensor.Tensor) *tensor.Tensor { return m.ForwardFrom(x, 0, nil) }

// ForwardFrom runs layers [from, len) over x. It is used by the fine-grained
// UDF execution paths, where earlier operators have already been evaluated
// (possibly relation-centrically). A Linear or QuantLinear followed by
// ReLU runs as one pass; code that runs one layer at a time gets the same
// bits. No layer of this package writes x: an activation that would
// overwrite it works on a copy.
//
// With a workspace ws (nil for none), every intermediate output of a
// Linear or QuantLinear is written into ws instead of a fresh tensor, so a
// warm pass allocates only what it returns; the returned tensor is always
// freshly allocated and never aliases ws. The bits are the same either
// way. A model holding a layer this package does not define ignores ws.
func (m *Model) ForwardFrom(x *tensor.Tensor, from int, ws *Workspace) *tensor.Tensor {
	layers := m.Layers[from:]
	if ws != nil {
		need := workspaceFloats(layers, x.Dim(0))
		if need < 0 {
			ws = nil
		} else {
			ws.grow(need)
		}
	}
	last := lastOwned(layers)
	next := 0        // the end of ws the next dense output goes to; x, if in ws, is at the other
	borrowed := true // x is the caller's tensor, or a view of it
	for i := 0; i < len(layers); i++ {
		switch l := layers[i]; roleOf(l) {
		case roleDense:
			d := l.(denseLayer)
			relu := fusesReLU(layers, i)
			var out *tensor.Tensor
			if ws != nil && i < last {
				out = ws.at(next, x.Dim(0), d.Out())
				next = 1 - next
			} else {
				out = tensor.New(x.Dim(0), d.Out())
			}
			d.denseInto(out, x, relu)
			x, borrowed = out, false
			if relu {
				i++
			}
		case roleInPlace:
			if borrowed {
				x, borrowed = x.Clone(), false
			}
			x = l.Forward(x)
		case roleFresh:
			x, borrowed = l.Forward(x), false
		default: // Flatten's view of x, or a layer defined elsewhere, which may return x itself
			x = l.Forward(x)
		}
	}
	return x
}

// ParamBytes returns the total parameter size of the model in bytes.
func (m *Model) ParamBytes() int64 {
	var b int64
	for _, l := range m.Layers {
		b += l.ParamBytes()
	}
	return b
}

// OpEstimate describes one operator's estimated working set for a batch
// size — the quantity the paper's rule-based optimizer compares against its
// memory-limit threshold.
type OpEstimate struct {
	Index    int    // layer index within the model
	Op       string // layer name
	InShape  []int
	OutShape []int
	Bytes    int64
}

// MemEstimates returns the per-operator memory estimates for a batch size.
func (m *Model) MemEstimates(batch int) ([]OpEstimate, error) {
	shape := m.batchShape(batch)
	ests := make([]OpEstimate, 0, len(m.Layers))
	for i, l := range m.Layers {
		next, err := l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, l.Name(), err)
		}
		ests = append(ests, OpEstimate{
			Index:    i,
			Op:       l.Name(),
			InShape:  shape,
			OutShape: next,
			Bytes:    l.MemEstimate(shape),
		})
		shape = next
	}
	return ests, nil
}

// MaxOpBytes returns the largest per-operator memory estimate for a batch.
func (m *Model) MaxOpBytes(batch int) (int64, error) {
	ests, err := m.MemEstimates(batch)
	if err != nil {
		return 0, err
	}
	var maxB int64
	for _, e := range ests {
		if e.Bytes > maxB {
			maxB = e.Bytes
		}
	}
	return maxB, nil
}

// Predict runs the model and returns the argmax class per row of a 2-D
// output. It errors if the output is not 2-D.
func (m *Model) Predict(x *tensor.Tensor) ([]int, error) {
	out := m.Forward(x)
	if out.Rank() != 2 {
		return nil, fmt.Errorf("nn: Predict needs 2-D output, model %q produced %v", m.ModelName, out.Shape())
	}
	classes := make([]int, out.Dim(0))
	for i := range classes {
		classes[i] = out.ArgMaxRow(i)
	}
	return classes, nil
}
