package nn

import "tensorbase/internal/tensor"

// Workspace holds the intermediate activations of one forward pass at a
// time, so a warm pass allocates only the tensor it returns. It is one
// float32 arena whose two ends are the ping-pong buffers: a Linear or
// QuantLinear reads its input at one end and writes its output at the
// other. The arena therefore never needs more than the largest
// input + output pair of a single layer, which that layer's memory estimate
// (the paper's m·k + k·n + m·n) already counts. ForwardFrom grows it to fit
// on first use; the zero value is ready, and one Workspace serves one
// ForwardFrom at a time.
type Workspace struct {
	buf  []float32
	ends [2]tensor.Tensor // headers over the front and the back of buf
}

// Bytes returns the workspace's size.
func (w *Workspace) Bytes() int64 { return int64(len(w.buf)) * bytesPerElem }

// grow makes the arena hold at least n floats. Its old contents need not
// survive: ForwardFrom grows it before the first layer runs.
func (w *Workspace) grow(n int) {
	if len(w.buf) < n {
		w.buf = make([]float32, n)
	}
}

// at returns an (r,c) tensor over the front (end 0) or back (end 1) of the
// arena.
func (w *Workspace) at(end, r, c int) *tensor.Tensor {
	data := w.buf[:r*c]
	if end == 1 {
		data = w.buf[len(w.buf)-r*c:]
	}
	t := &w.ends[end]
	t.Reuse2D(data, r, c)
	return t
}

// WorkspaceBytes returns the bytes Forward holds in a workspace over a
// batch of batch rows, or -1 when the model has a layer this package does
// not define (Forward then ignores the workspace). It never exceeds
// MaxOpBytes(batch).
func (m *Model) WorkspaceBytes(batch int) int64 {
	n := workspaceFloats(m.Layers, batch)
	if n < 0 {
		return -1
	}
	return int64(n) * bytesPerElem
}

// denseLayer is a layer computed by tensor.DenseInto or DenseQ8Into: it
// writes into a tensor it is handed, and folds a following ReLU into the
// same pass with the bits of running the two layers one after the other.
type denseLayer interface {
	Layer
	Out() int
	denseInto(out, x *tensor.Tensor, relu bool)
}

// role is how ForwardFrom treats a layer's output.
type role uint8

const (
	roleDense   role = iota // Linear, QuantLinear: written where ForwardFrom says
	roleFresh               // Conv2D, QuantConv2D: a tensor of its own
	roleInPlace             // ReLU, Sigmoid, Softmax: its input, overwritten
	roleView                // Flatten: a view of its input
	roleUnknown             // a layer defined outside this package
)

func roleOf(l Layer) role {
	switch l.(type) {
	case denseLayer:
		return roleDense
	case *Conv2D, *QuantConv2D:
		return roleFresh
	case ReLU, Sigmoid, Softmax:
		return roleInPlace
	case Flatten:
		return roleView
	}
	return roleUnknown
}

// fusesReLU reports whether layers[i], a dense layer, runs together with
// the ReLU after it.
func fusesReLU(layers []Layer, i int) bool {
	if i+1 >= len(layers) {
		return false
	}
	_, relu := layers[i+1].(ReLU)
	return relu
}

// lastOwned returns the index of the last layer that writes a tensor of
// its own (dense or fresh), or -1. Its output, carried through any
// activations and views after it, is what ForwardFrom returns, so it is
// the one dense output that never goes into a workspace.
func lastOwned(layers []Layer) int {
	for i := len(layers) - 1; i >= 0; i-- {
		if r := roleOf(layers[i]); r == roleDense || r == roleFresh {
			return i
		}
	}
	return -1
}

// workspaceFloats returns the arena size ForwardFrom needs to run layers
// over a batch of rows — the largest input + output of a dense layer whose
// output goes into the workspace, the input counting only when it is there
// too — or -1 when layers include one this package does not define.
func workspaceFloats(layers []Layer, rows int) int {
	last := lastOwned(layers)
	need, held := 0, 0 // held: floats of the current activation in the arena
	for i := 0; i < len(layers); i++ {
		switch roleOf(layers[i]) {
		case roleDense:
			out := 0
			if i < last {
				out = rows * layers[i].(denseLayer).Out()
				need = max(need, held+out)
			}
			held = out
			if fusesReLU(layers, i) {
				i++
			}
		case roleFresh:
			held = 0
		case roleUnknown:
			return -1
		}
	}
	return need
}
