// Package tensor implements dense numeric tensors and the linear-algebra
// kernels the in-database inference engine is built on: blocked matrix
// multiplication, 2-D convolution (direct and via im2col spatial rewriting),
// and the elementwise activations used by the supported model families.
//
// Tensors are row-major float32. The representation is deliberately simple —
// a shape vector plus a flat backing slice — because every higher layer
// (the UDF runtime, the tensor-block relations, the simulated external DL
// runtime) shares it, and block slicing must be cheap and explicit.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is NOT
// copied; the tensor aliases it. It panics if len(data) does not match the
// shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Format a copy, so shape itself never escapes.
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The caller must not mutate it.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the flat backing slice in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Bytes returns the in-memory size of the tensor payload in bytes.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a view of t with a new shape of equal volume.
// The data is shared, not copied.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Reuse2D repoints t at data as an r×c matrix, reusing t's shape slice —
// the allocation-free counterpart of FromSlice for block-streaming inner
// loops that cycle one Tensor header over many scratch buffers. The slice
// is not copied; the tensor aliases it.
func (t *Tensor) Reuse2D(data []float32, r, c int) {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("tensor: Reuse2D data length %d does not match (%d,%d)", len(data), r, c))
	}
	if cap(t.shape) >= 2 {
		t.shape = t.shape[:2]
	} else {
		t.shape = make([]int, 2)
	}
	t.shape[0], t.shape[1] = r, c
	t.data = data
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// Row returns a view of row i of a 2-D tensor as a length-cols slice.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	c := t.shape[1]
	return t.data[i*c : (i+1)*c]
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Equal reports whether t and o have identical shape and element values.
func (t *Tensor) Equal(o *Tensor) bool {
	if !sameShape(t.shape, o.shape) {
		return false
	}
	for i, v := range t.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether t and o have the same shape and all elements
// within tol of each other.
func (t *Tensor) AlmostEqual(o *Tensor, tol float64) bool {
	if !sameShape(t.shape, o.shape) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(float64(v-o.data[i])) > tol {
			return false
		}
	}
	return true
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%d elems, %.1f KiB]", t.shape, len(t.data), float64(t.Bytes())/1024)
}

// Slice2D returns a copy of the block rows [r0,r1) × cols [c0,c1) of a 2-D
// tensor. Out-of-range portions are clamped to the tensor bounds, so callers
// tiling a matrix into fixed-size blocks can pass unclipped coordinates.
func (t *Tensor) Slice2D(r0, r1, c0, c1 int) *Tensor {
	if len(t.shape) != 2 {
		panic("tensor: Slice2D requires a 2-D tensor")
	}
	rows, cols := t.shape[0], t.shape[1]
	r1 = min(r1, rows)
	c1 = min(c1, cols)
	if r0 < 0 || c0 < 0 || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("tensor: invalid Slice2D range [%d:%d, %d:%d] for shape %v", r0, r1, c0, c1, t.shape))
	}
	out := New(r1-r0, c1-c0)
	w := c1 - c0
	for r := r0; r < r1; r++ {
		copy(out.data[(r-r0)*w:(r-r0+1)*w], t.data[r*cols+c0:r*cols+c1])
	}
	return out
}

// SetBlock2D copies block src into t at row offset r0, column offset c0.
// The block must fit within t.
func (t *Tensor) SetBlock2D(src *Tensor, r0, c0 int) {
	if len(t.shape) != 2 || len(src.shape) != 2 {
		panic("tensor: SetBlock2D requires 2-D tensors")
	}
	br, bc := src.shape[0], src.shape[1]
	if r0 < 0 || c0 < 0 || r0+br > t.shape[0] || c0+bc > t.shape[1] {
		panic(fmt.Sprintf("tensor: block %v at (%d,%d) does not fit in %v", src.shape, r0, c0, t.shape))
	}
	cols := t.shape[1]
	for r := 0; r < br; r++ {
		copy(t.data[(r0+r)*cols+c0:(r0+r)*cols+c0+bc], src.data[r*bc:(r+1)*bc])
	}
}

// SliceRows returns a view of rows [r0, r1) along dimension 0, sharing
// storage (row-major layout makes any dim-0 range contiguous).
func (t *Tensor) SliceRows(r0, r1 int) *Tensor {
	n := t.shape[0]
	if r0 < 0 || r1 > n || r0 > r1 {
		panic(fmt.Sprintf("tensor: SliceRows [%d:%d) out of range for %v", r0, r1, t.shape))
	}
	per := len(t.data) / max(n, 1)
	shape := append([]int(nil), t.shape...)
	shape[0] = r1 - r0
	return &Tensor{shape: shape, data: t.data[r0*per : r1*per]}
}

// ArgMaxRow returns the index of the maximum element in row i of a 2-D
// tensor. Ties resolve to the lowest index.
func (t *Tensor) ArgMaxRow(i int) int {
	row := t.Row(i)
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}
