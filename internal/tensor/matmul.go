package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tensorbase/internal/parallel"
)

// matmulParallelThreshold is the minimum number of multiply-adds before
// MatMul fans work out to worker goroutines; below it the goroutine overhead
// dominates for the small models this engine serves.
const matmulParallelThreshold = 1 << 18

// maxWorkers caps kernel parallelism when set (> 0); tests use it to pin a
// kernel's fan-out.
var maxWorkers atomic.Int32

// Process-wide kernel counters, exported through the engine's metrics
// registry. They count dispatch decisions (fanned-out vs serial, vector vs
// Go loop) and int8 GEMM invocations, not FLOPs.
var (
	kernelSerialRuns  atomic.Uint64
	kernelFanOuts     atomic.Uint64
	kernelQ8Calls     atomic.Uint64
	kernelVectorCalls atomic.Uint64
)

// KernelStats is a snapshot of the kernel dispatch counters.
type KernelStats struct {
	SerialRuns  uint64 // kernels that ran on the caller's goroutine alone
	FanOuts     uint64 // kernels that drew extra workers from the shared budget
	Q8Calls     uint64 // int8 GEMM invocations (MatMulQ8Into, DenseQ8)
	VectorCalls uint64 // Dense/DenseQ8 calls that ran an AVX2 tile or SSE tail dot
}

// Kernels returns the process-wide kernel dispatch counters.
func Kernels() KernelStats {
	return KernelStats{
		SerialRuns:  kernelSerialRuns.Load(),
		FanOuts:     kernelFanOuts.Load(),
		Q8Calls:     kernelQ8Calls.Load(),
		VectorCalls: kernelVectorCalls.Load(),
	}
}

// SetMaxWorkers caps the number of goroutines a single kernel may fan out
// to; n <= 0 restores the default (GOMAXPROCS).
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int32(n))
}

// kernelWorkers returns the static per-kernel parallelism cap.
func kernelWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if cap := int(maxWorkers.Load()); cap > 0 && cap < w {
		w = cap
	}
	return w
}

// fanOut decides how many goroutines a kernel over m result rows and `work`
// multiply-adds may use. Beyond the static cap (GOMAXPROCS ∧ SetMaxWorkers)
// it asks the shared parallel.Budget for tokens, so a kernel running inside
// an engine worker that already holds the machine's cores degrades to
// serial instead of oversubscribing (Sec. 3). The caller's goroutine is the
// first worker; extra tokens are returned via the release func (nil when
// the kernel should run serially).
func fanOut(m, work int) (workers int, release func()) {
	w := kernelWorkers()
	if work < matmulParallelThreshold || w <= 1 || m <= 1 {
		kernelSerialRuns.Add(1)
		return 1, nil
	}
	if w > m {
		w = m
	}
	budget := parallel.Default()
	extra := budget.TryAcquireUpTo(w - 1)
	if extra == 0 {
		kernelSerialRuns.Add(1)
		return 1, nil
	}
	kernelFanOuts.Add(1)
	return extra + 1, func() { budget.Release(extra) }
}

// bandLoop runs fn over row bands [r0,r1) of m rows split across workers,
// computing the first band on the caller's goroutine.
func bandLoop(m, workers int, fn func(r0, r1 int)) {
	band := (m + workers - 1) / workers
	var wg sync.WaitGroup
	for r0 := band; r0 < m; r0 += band {
		r1 := min(r0+band, m)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			fn(r0, r1)
		}(r0, r1)
	}
	fn(0, min(band, m))
	wg.Wait()
}

// MatMul returns a × b for 2-D tensors of shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's storage. Shapes must be
// (m,k) × (k,n) → (m,n). The kernel is a cache-friendly i-k-j loop with the
// inner loop over contiguous rows of b, parallelised across row bands of a
// when the problem is large enough and the shared core budget has tokens
// free.
func MatMulInto(out, a, b *Tensor) {
	m, k, n := checkMatMulShapes(out, a, b)
	for i := range out.data {
		out.data[i] = 0
	}
	matmulAdd(out.data, a.data, b.data, m, k, n, matmulRows)
}

// MatMulAddInto computes out += a × b — the fused multiply-accumulate the
// blocked execution paths use so the per-k-step partial product of
// C[rb,cb] = Σₖ A[rb,k]·B[k,cb] accumulates straight into the result block
// instead of materialising a temporary tensor per step. Shapes must be
// (m,k) × (k,n) → (m,n).
func MatMulAddInto(out, a, b *Tensor) {
	m, k, n := checkMatMulShapes(out, a, b)
	matmulAdd(out.data, a.data, b.data, m, k, n, matmulRows)
}

// sparseSkipFraction is the zero fraction of a above which the adaptive
// dispatch prefers the zero-skipping kernel over the dense unrolled one.
const sparseSkipFraction = 0.5

// MatMulAddAutoInto computes out += a × b like MatMulAddInto, but first
// samples a's zero fraction and dispatches to a zero-skipping kernel when
// more than half of a is zero — the deduplicated/padded tensor blocks the
// blocked execution path produces. The dispatch depends only on a's
// contents, so parallel and serial execution still pick the same kernel and
// remain bit-identical.
func MatMulAddAutoInto(out, a, b *Tensor) {
	m, k, n := checkMatMulShapes(out, a, b)
	zeros := 0
	for _, v := range a.data {
		if v == 0 {
			zeros++
		}
	}
	rows := matmulRows
	if float64(zeros) > sparseSkipFraction*float64(len(a.data)) {
		rows = matmulRowsSparse
	}
	matmulAdd(out.data, a.data, b.data, m, k, n, rows)
}

func checkMatMulShapes(out, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || out.Rank() != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	m, k = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%d,%d)×(%d,%d)", m, k, k2, n))
	}
	if out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMul output shape %v, want (%d,%d)", out.shape, m, n))
	}
	return m, k, n
}

// matmulAdd accumulates a×b into out via rows, fanning out across row bands
// when the problem is large enough. Row bands write disjoint rows of out, so
// the parallel result is bit-identical to the serial one.
func matmulAdd(out, a, b []float32, m, k, n int, rows func(out, a, b []float32, r0, r1, k, n int)) {
	workers, release := fanOut(m, m*k*n)
	if workers == 1 {
		rows(out, a, b, 0, m, k, n)
		return
	}
	defer release()
	bandLoop(m, workers, func(r0, r1 int) {
		rows(out, a, b, r0, r1, k, n)
	})
}

// axpyUnrolled computes orow[j] += av*brow[j] over min(len(orow), len(brow))
// elements — the shared i-k-j inner loop. The 8-wide unroll works on
// constant-length subslices so the compiler proves all eight accesses in
// bounds from one slice operation; per-element accumulation order is
// unchanged from the scalar loop, keeping results bit-identical. Each
// product is converted to float32 explicitly: the conversion rounds it, so
// the compiler may not fuse it with the add into an FMA (on arm64 it does
// otherwise), and every architecture returns the same bits.
func axpyUnrolled(orow, brow []float32, av float32) {
	n := min(len(orow), len(brow))
	j := 0
	for ; j+8 <= n; j += 8 {
		o := orow[j : j+8 : j+8]
		r := brow[j : j+8 : j+8]
		o[0] += float32(av * r[0])
		o[1] += float32(av * r[1])
		o[2] += float32(av * r[2])
		o[3] += float32(av * r[3])
		o[4] += float32(av * r[4])
		o[5] += float32(av * r[5])
		o[6] += float32(av * r[6])
		o[7] += float32(av * r[7])
	}
	for ; j < n; j++ {
		orow[j] += float32(av * brow[j])
	}
}

// matmulRows accumulates rows [r0,r1) of the product into out: the dense
// micro-kernel. Unlike the seed kernel it does not test every a element for
// zero — the branch cost more than the multiply on dense activations.
func matmulRows(out, a, b []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p, av := range arow {
			axpyUnrolled(orow, b[p*n:(p+1)*n], av)
		}
	}
}

// matmulRowsSparse is the zero-skipping variant of matmulRows, profitable
// only when a is mostly zeros (MatMulAddAutoInto decides). Skipping av == 0
// instead of adding av*bv can differ from the dense kernel only in the sign
// of zeros and for non-finite b values.
func matmulRowsSparse(out, a, b []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			axpyUnrolled(orow, b[p*n:(p+1)*n], av)
		}
	}
}

// MatMulTransB returns a × bᵀ for shapes (m,k) and (n,k). Weight matrices in
// the model zoo are stored (out,in), so X × Wᵀ is the hot path; it is
// Dense without bias or ReLU.
func MatMulTransB(a, b *Tensor) *Tensor { return Dense(a, b, nil, false) }

// matmulTransBRows computes rows [r0,r1) of a × bᵀ: the Go kernel, which
// the vector kernels reproduce bit for bit and which runs where they do
// not. The micro-kernel blocks four output columns per pass — one read of
// the a row feeds four independent dot-product accumulators, which hides
// the float-add latency chain a single-accumulator loop serialises on —
// and the n mod 4 tail columns use dotUnrolled.
func matmulTransBRows(out, a, b []float32, r0, r1, k, n int) {
	n4 := n &^ 3
	transBCols4(out, a, b, r0, r1, k, n, 0, n4)
	if n4 == n {
		return
	}
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		for j := n4; j < n; j++ {
			out[i*n+j] = dotUnrolled(arow, b[j*k:(j+1)*k:(j+1)*k])
		}
	}
}

// transBCols4 computes columns [j0,j1) of rows [r0,r1) of a × bᵀ, four
// columns per pass; j1-j0 is a multiple of 4. Each sum runs in k order,
// s = ((0 + a₀b₀) + a₁b₁) + …, with every product rounded to float32
// before it is added (see axpyUnrolled).
func transBCols4(out, a, b []float32, r0, r1, k, n, j0, j1 int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		orow := out[i*n : (i+1)*n : (i+1)*n]
		for j := j0; j+4 <= j1; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += float32(av * b0[p])
				s1 += float32(av * b1[p])
				s2 += float32(av * b2[p])
				s3 += float32(av * b3[p])
			}
			orow[j] = s0
			orow[j+1] = s1
			orow[j+2] = s2
			orow[j+3] = s3
		}
	}
}

// dotUnrolled is the tail-column dot product: four partial accumulators
// over a 4-wide k unroll, the k mod 4 tail added into the first, summed
// pairwise at the end.
func dotUnrolled(x, y []float32) float32 {
	k := min(len(x), len(y))
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+4 <= k; p += 4 {
		xs := x[p : p+4 : p+4]
		ys := y[p : p+4 : p+4]
		s0 += float32(xs[0] * ys[0])
		s1 += float32(xs[1] * ys[1])
		s2 += float32(xs[2] * ys[2])
		s3 += float32(xs[3] * ys[3])
	}
	for ; p < k; p++ {
		s0 += float32(x[p] * y[p])
	}
	return (s0 + s1) + (s2 + s3)
}

// AddInto computes out[i] += add[i] elementwise; shapes must match.
func AddInto(out, add *Tensor) {
	if !sameShape(out.shape, add.shape) {
		panic(fmt.Sprintf("tensor: AddInto shape mismatch %v vs %v", out.shape, add.shape))
	}
	for i, v := range add.data {
		out.data[i] += v
	}
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(t *Tensor) *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j*m+i] = v
		}
	}
	return out
}
