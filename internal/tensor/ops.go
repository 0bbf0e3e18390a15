package tensor

import (
	"fmt"
	"math"
)

// ReLUInto applies max(0,x) elementwise in place and returns t.
func ReLUInto(t *Tensor) *Tensor {
	// Branchless: clear the word when the sign bit is set. Activation signs
	// are data-dependent coin flips, so the obvious `if v < 0` mispredicts
	// its way through every post-GEMM sweep; the mask form runs at memory
	// speed. (−0 maps to +0, which compares equal everywhere it matters.)
	reluSlice(t.data)
	return t
}

// SigmoidInto applies the logistic function elementwise in place and returns t.
func SigmoidInto(t *Tensor) *Tensor {
	for i, v := range t.data {
		t.data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return t
}

// SoftmaxRowsInto applies a numerically stable softmax to each row of a 2-D
// tensor in place and returns t.
func SoftmaxRowsInto(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: SoftmaxRows requires a 2-D tensor")
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			row[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
	return t
}

// AddBiasRowsInto adds bias (length n) to every row of a 2-D (m,n) tensor in
// place and returns t.
func AddBiasRowsInto(t *Tensor, bias *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: AddBiasRows requires a 2-D tensor")
	}
	n := t.shape[1]
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: bias length %d does not match row width %d", bias.Len(), n))
	}
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, b := range bias.data {
			row[j] += b
		}
	}
	return t
}

// Sum returns the sum of all elements as float64 for accumulation accuracy.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Dot returns the dot product of two equal-length 1-D views (flat data).
func Dot(a, b *Tensor) float64 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", a.Len(), b.Len()))
	}
	var s float64
	for i, v := range a.data {
		s += float64(v) * float64(b.data[i])
	}
	return s
}

// L2Distance returns the Euclidean distance between two equal-length flat
// tensors.
func L2Distance(a, b *Tensor) float64 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("tensor: L2Distance length mismatch %d vs %d", a.Len(), b.Len()))
	}
	var s float64
	for i, v := range a.data {
		d := float64(v) - float64(b.data[i])
		s += d * d
	}
	return math.Sqrt(s)
}
