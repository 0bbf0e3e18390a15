package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// QuantizeRowsQ8 and MatMulQ8Into are DenseQ8's oracle: the same int8
// arithmetic as scalar loops over explicit int8 buffers.

// QuantizeRowsQ8 symmetrically quantizes each row of src — an (m,k)
// row-major matrix — to int8: scales[i] = maxAbs(row i)/127 (1 for an
// all-zero row, so dequantization is exact) and
// dst[i*k+j] = round(src[i*k+j]/scales[i]) clamped to ±127.
//
// Per-ROW scales matter beyond accuracy: DenseQ8 quantizes activations the
// same way, and a per-row scale makes every row's int8 image independent
// of which batch it rides in — so cached, serial and pipelined executions
// of the same tuple are bit-identical.
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
// DenseQ8 serves; this kernel, after QuantizeRowsQ8, is its oracle.
func MatMulQ8Into(out *Tensor, a8 []int8, aScales []float32, b8 []int8, bScales []float32, m, k, n int) {
	if out.Rank() != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulQ8Into output shape %v, want (%d,%d)", out.shape, m, n))
	}
	if len(a8) < m*k || len(aScales) < m || len(b8) < n*k || len(bScales) < n {
		panic(fmt.Sprintf("tensor: MatMulQ8Into operands too short for (%d,%d)×(%d,%d)ᵀ", m, k, n, k))
	}
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

func TestQuantizeRowsQ8(t *testing.T) {
	src := []float32{
		1, -2, 4, // maxAbs 4 → scale 4/127
		0, 0, 0, // zero row → scale 1, exact zeros
		254, -127, 0, // maxAbs 254 → scale 2
	}
	dst := make([]int8, 9)
	scales := make([]float32, 3)
	QuantizeRowsQ8(dst, scales, src, 3, 3)

	if scales[1] != 1 {
		t.Fatalf("zero row scale = %v, want 1", scales[1])
	}
	if dst[3] != 0 || dst[4] != 0 || dst[5] != 0 {
		t.Fatalf("zero row quantized to %v", dst[3:6])
	}
	if scales[2] != 2 {
		t.Fatalf("row 2 scale = %v, want 2", scales[2])
	}
	if dst[6] != 127 || dst[7] != -64 || dst[8] != 0 {
		t.Fatalf("row 2 quantized to %v, want [127 -64 0]", dst[6:9])
	}
	// Every row's maxAbs element must map to ±127 exactly.
	if dst[2] != 127 {
		t.Fatalf("row 0 max element quantized to %d, want 127", dst[2])
	}
}

func TestQuantizeRowsQ8Clamps(t *testing.T) {
	// A value slightly above maxAbs would round past 127 without the clamp;
	// construct it by quantizing a row whose scale derives from an earlier
	// element via shared buffers is impossible, so just verify ±127 bounds
	// hold for extreme ratios.
	src := []float32{math.MaxFloat32, -math.MaxFloat32, 1e-20}
	dst := make([]int8, 3)
	scales := make([]float32, 1)
	QuantizeRowsQ8(dst, scales, src, 1, 3)
	if dst[0] != 127 || dst[1] != -127 {
		t.Fatalf("extremes quantized to %v, want ±127", dst[:2])
	}
}

// q8Reference computes the quantized product exactly in integer arithmetic.
func q8Reference(a8 []int8, aScales []float32, b8 []int8, bScales []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum int64
			for p := 0; p < k; p++ {
				sum += int64(a8[i*k+p]) * int64(b8[j*k+p])
			}
			out[i*n+j] = float32(sum) * aScales[i] * bScales[j]
		}
	}
	return out
}

func TestMatMulQ8IntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {4, 28, 9}, {17, 13, 2}, {8, 4, 4},
	} {
		a8 := make([]int8, c.m*c.k)
		b8 := make([]int8, c.n*c.k)
		for i := range a8 {
			a8[i] = int8(rng.Intn(255) - 127)
		}
		for i := range b8 {
			b8[i] = int8(rng.Intn(255) - 127)
		}
		aScales := make([]float32, c.m)
		bScales := make([]float32, c.n)
		for i := range aScales {
			aScales[i] = rng.Float32() + 0.01
		}
		for i := range bScales {
			bScales[i] = rng.Float32() + 0.01
		}
		want := q8Reference(a8, aScales, b8, bScales, c.m, c.k, c.n)
		out := New(c.m, c.n)
		MatMulQ8Into(out, a8, aScales, b8, bScales, c.m, c.k, c.n)
		for i, v := range out.Data() {
			if v != want[i] {
				t.Fatalf("(%d,%d,%d): elem %d = %v, want %v", c.m, c.k, c.n, i, v, want[i])
			}
		}
	}
}

// The int8 kernel must stay bit-identical when it fans out across row bands:
// integer accumulation is order-independent and bands write disjoint rows.
func TestMatMulQ8ParallelBitIdentical(t *testing.T) {
	withProcs(t, 4)
	withBudget(t, 4)
	rng := rand.New(rand.NewSource(8))
	m, k, n := 128, 64, 64 // 512k mul-adds, over the fan-out threshold
	a8 := make([]int8, m*k)
	b8 := make([]int8, n*k)
	for i := range a8 {
		a8[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b8 {
		b8[i] = int8(rng.Intn(255) - 127)
	}
	aScales := make([]float32, m)
	bScales := make([]float32, n)
	for i := range aScales {
		aScales[i] = rng.Float32() + 0.01
	}
	for i := range bScales {
		bScales[i] = rng.Float32() + 0.01
	}

	SetMaxWorkers(1)
	serial := New(m, n)
	MatMulQ8Into(serial, a8, aScales, b8, bScales, m, k, n)
	SetMaxWorkers(0)

	parallel := New(m, n)
	MatMulQ8Into(parallel, a8, aScales, b8, bScales, m, k, n)
	if !parallel.Equal(serial) {
		t.Fatal("parallel int8 GEMM differs from serial")
	}
}

// The wide-k fallback must agree with the int32 kernel where both apply.
func TestMatMulQ8WideKernelAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, k, n := 3, 33, 5
	a8 := make([]int8, m*k)
	b8 := make([]int8, n*k)
	for i := range a8 {
		a8[i] = int8(rng.Intn(255) - 127)
	}
	for i := range b8 {
		b8[i] = int8(rng.Intn(255) - 127)
	}
	aScales := []float32{0.5, 1, 2}
	bScales := []float32{1, 0.25, 3, 0.125, 1}
	narrow := make([]float32, m*n)
	wide := make([]float32, m*n)
	matmulQ8Rows(narrow, a8, aScales, b8, bScales, 0, m, k, n)
	matmulQ8RowsWide(wide, a8, aScales, b8, bScales, 0, m, k, n)
	for i := range narrow {
		if narrow[i] != wide[i] {
			t.Fatalf("elem %d: narrow %v, wide %v", i, narrow[i], wide[i])
		}
	}
}

// seedMatMulTransBRows is the pre-unrolling kernel, kept verbatim as the
// baseline the unrolled kernel is benchmarked and cross-checked against.
func seedMatMulTransBRows(out, a, b []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var sum float32
			for p, av := range arow {
				sum += av * brow[p]
			}
			orow[j] = sum
		}
	}
}

func TestMatMulTransBUnrolledMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 28, 5}, {7, 13, 4}, {5, 3, 9}, {256, 28, 2},
	} {
		a := randTensor(rng, c.m, c.k)
		b := randTensor(rng, c.n, c.k)
		want := New(c.m, c.n)
		seedMatMulTransBRows(want.Data(), a.Data(), b.Data(), 0, c.m, c.k, c.n)
		got := Dense(a, b, nil, false)
		if !got.AlmostEqual(want, 1e-4) {
			t.Fatalf("(%d,%d,%d): unrolled kernel diverged from seed", c.m, c.k, c.n)
		}
	}
}

func TestKernelCounters(t *testing.T) {
	before := Kernels()
	rng := rand.New(rand.NewSource(12))
	_ = MatMul(randTensor(rng, 4, 4), randTensor(rng, 4, 4)) // under threshold → serial
	DenseQ8(New(1, 2), NewQ8Pairs([]int8{3, 4}, []float32{1}, 1, 2), nil, false)
	after := Kernels()
	if after.SerialRuns <= before.SerialRuns {
		t.Fatal("serial kernel run not counted")
	}
	if after.Q8Calls != before.Q8Calls+1 {
		t.Fatalf("q8 calls %d → %d, want +1", before.Q8Calls, after.Q8Calls)
	}
}

// Fraud-FC-256 serving shapes: the batch × hidden layer dominates.
const (
	benchM = 256 // batch rows
	benchK = 28  // feature width
	benchN = 256 // hidden units
)

func benchOperands(rng *rand.Rand) (a, b *Tensor) {
	return randTensor(rng, benchM, benchK), randTensor(rng, benchN, benchK)
}

func BenchmarkKernelTransBSeed(bm *testing.B) {
	a, b := benchOperands(rand.New(rand.NewSource(20)))
	out := New(benchM, benchN)
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		seedMatMulTransBRows(out.Data(), a.Data(), b.Data(), 0, benchM, benchK, benchN)
	}
}

func BenchmarkKernelTransBUnrolled(bm *testing.B) {
	a, b := benchOperands(rand.New(rand.NewSource(20)))
	out := New(benchM, benchN)
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		matmulTransBRows(out.Data(), a.Data(), b.Data(), 0, benchM, benchK, benchN)
	}
}

func BenchmarkKernelQ8(bm *testing.B) {
	rng := rand.New(rand.NewSource(20))
	a, b := benchOperands(rng)
	a8 := make([]int8, benchM*benchK)
	b8 := make([]int8, benchN*benchK)
	aScales := make([]float32, benchM)
	bScales := make([]float32, benchN)
	QuantizeRowsQ8(b8, bScales, b.Data(), benchN, benchK)
	out := New(benchM, benchN)
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		// Include per-batch activation quantization: the serving path pays it.
		QuantizeRowsQ8(a8, aScales, a.Data(), benchM, benchK)
		matmulQ8Rows(out.Data(), a8, aScales, b8, bScales, 0, benchM, benchK, benchN)
	}
}
