package tensor

import (
	"fmt"
)

// QuantizeRowsQ8 symmetrically quantizes each row of src — an (m,k)
// row-major matrix — to int8: scales[i] = maxAbs(row i)/127 (1 for an
// all-zero row, so dequantization is exact) and
// dst[i*k+j] = round(src[i*k+j]/scales[i]) clamped to ±127.
//
// Per-ROW scales matter beyond accuracy: the serving path quantizes
// activations with this function, and a per-row scale makes every row's
// int8 image independent of which batch it rides in — so cached, serial
// and pipelined executions of the same tuple are bit-identical.
func QuantizeRowsQ8(dst []int8, scales []float32, src []float32, m, k int) {
	if len(src) < m*k || len(dst) < m*k || len(scales) < m {
		panic(fmt.Sprintf("tensor: QuantizeRowsQ8 buffers too short for (%d,%d)", m, k))
	}
	for i := 0; i < m; i++ {
		row := src[i*k : (i+1)*k : (i+1)*k]
		scale := maxAbsGo(row) / 127
		if scale == 0 {
			scale = 1
		}
		scales[i] = scale
		q := dst[i*k : (i+1)*k : (i+1)*k]
		inv := 1 / scale
		for j, v := range row {
			q[j] = int8(quantQ8(v, inv))
		}
	}
}

// quantQ8 rounds v·inv half away from zero and clamps to ±127 — the exact
// arithmetic QuantizeRowsQ8 has always used, with the math.Round call
// replaced by an add-and-truncate that the hot loops can afford. The
// product is computed in float32 (matching the historical behaviour) and
// widened before the ±0.5 add, which is then exact: a widened float32 of
// magnitude ≥ 2⁻²⁹ has its lowest bit well above float64's rounding point,
// and anything smaller rounds to 0 either way.
func quantQ8(v, inv float32) int32 {
	f := float64(v * inv)
	switch {
	case f >= 126.5: // rounds to ≥ 127: clamp before int conversion
		return 127
	case f <= -126.5:
		return -127
	case f >= 0:
		return int32(f + 0.5)
	case f < 0:
		return int32(f - 0.5)
	}
	return 0 // NaN input: comparisons all false
}

// MatMulQ8Into computes the int8 GEMM out = (a8 · b8ᵀ) scaled back to f32:
// a8 is an (m,k) row-major int8 matrix with one scale per row (quantized
// activations), b8 an (n,k) row-major int8 matrix with one scale per row —
// the (out,in) weight layout, so b8's rows are output channels and its
// scales are the per-channel weight scales. Accumulation is exact int32;
// each element dequantizes on store:
//
//	out[i,j] = Σₚ a8[i,p]·b8[j,p] × aScales[i] × bScales[j]
//
// The same fanOut/bandLoop machinery as the f32 kernels supplies row-band
// parallelism, and integer accumulation is order-independent, so
// parallel-vs-serial bit-identity is exact rather than tolerance-level.
// Serving runs DenseQ8; this kernel, after QuantizeRowsQ8, is its oracle.
func MatMulQ8Into(out *Tensor, a8 []int8, aScales []float32, b8 []int8, bScales []float32, m, k, n int) {
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulQ8Into output shape %v, want (%d,%d)", out.shape, m, n))
	}
	if len(a8) < m*k || len(aScales) < m || len(b8) < n*k || len(bScales) < n {
		panic(fmt.Sprintf("tensor: MatMulQ8Into operands too short for (%d,%d)×(%d,%d)ᵀ", m, k, n, k))
	}
	kernelQ8Calls.Add(1)
	rows := matmulQ8Rows
	if k > q8WideK {
		rows = matmulQ8RowsWide
	}
	workers, release := fanOut(m, m*k*n)
	if workers == 1 {
		rows(out.data, a8, aScales, b8, bScales, 0, m, k, n)
		return
	}
	defer release()
	bandLoop(m, workers, func(r0, r1 int) {
		rows(out.data, a8, aScales, b8, bScales, r0, r1, k, n)
	})
}

// q8WideK is the largest inner dimension the int32-accumulator kernel
// handles without overflow risk: k·127² must stay below 2³¹.
const q8WideK = 1 << 17

// matmulQ8RowsWide is the int64-accumulator fallback for very wide inner
// dimensions (Amazon-14k-class layers), where k·127² could overflow int32.
func matmulQ8RowsWide(out []float32, a8 []int8, aScales []float32, b8 []int8, bScales []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a8[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		as := aScales[i]
		for j := 0; j < n; j++ {
			brow := b8[j*k : (j+1)*k : (j+1)*k]
			var sum int64
			for p, av := range arow {
				sum += int64(av) * int64(brow[p])
			}
			orow[j] = float32(sum) * as * bScales[j]
		}
	}
}

// matmulQ8Rows computes rows [r0,r1) of the int8 GEMM. Same shape as
// transBCols4: four output channels per pass over the activation row,
// int32 accumulators (independent integer add chains pipeline freely),
// dequantize on store.
func matmulQ8Rows(out []float32, a8 []int8, aScales []float32, b8 []int8, bScales []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a8[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		as := aScales[i]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b8[j*k : (j+1)*k : (j+1)*k]
			b1 := b8[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b8[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b8[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 int32
			for p, av := range arow {
				a := int32(av)
				s0 += a * int32(b0[p])
				s1 += a * int32(b1[p])
				s2 += a * int32(b2[p])
				s3 += a * int32(b3[p])
			}
			bs := bScales[j : j+4 : j+4]
			orow[j] = float32(s0) * as * bs[0]
			orow[j+1] = float32(s1) * as * bs[1]
			orow[j+2] = float32(s2) * as * bs[2]
			orow[j+3] = float32(s3) * as * bs[3]
		}
		for ; j < n; j++ {
			orow[j] = float32(dotQ8(arow, b8[j*k:(j+1)*k:(j+1)*k])) * as * bScales[j]
		}
	}
}

// dotQ8 is the tail-channel int8 dot product with four partial int32
// accumulators over a 4-wide k unroll. Integer addition is associative, so
// the split changes nothing.
func dotQ8(x, y []int8) int32 {
	k := min(len(x), len(y))
	var s0, s1, s2, s3 int32
	p := 0
	for ; p+4 <= k; p += 4 {
		xs := x[p : p+4 : p+4]
		ys := y[p : p+4 : p+4]
		s0 += int32(xs[0]) * int32(ys[0])
		s1 += int32(xs[1]) * int32(ys[1])
		s2 += int32(xs[2]) * int32(ys[2])
		s3 += int32(xs[3]) * int32(ys[3])
	}
	for ; p < k; p++ {
		s0 += int32(x[p]) * int32(y[p])
	}
	return s0 + s1 + s2 + s3
}
