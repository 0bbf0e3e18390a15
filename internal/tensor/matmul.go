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
	Q8Calls     uint64 // int8 GEMM invocations (DenseQ8)
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

// MatMul returns a × b for 2-D tensors of shapes (m,k) and (k,n): the
// (k,n)-layout product nn.Train's backward pass runs. Inference runs
// Dense/DenseAddInto, which take weights in their (out,in) layout.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires 2-D tensors")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%d,%d)×(%d,%d)", m, k, k2, n))
	}
	out := New(m, n)
	workers, release := fanOut(m, m*k*n)
	if workers == 1 {
		matmulRows(out.data, a.data, b.data, 0, m, k, n)
		return out
	}
	defer release()
	// Row bands write disjoint rows of out, so the parallel result is
	// bit-identical to the serial one.
	bandLoop(m, workers, func(r0, r1 int) { matmulRows(out.data, a.data, b.data, r0, r1, k, n) })
	return out
}

// axpyUnrolled computes orow[j] += av*brow[j] over min(len(orow), len(brow))
// elements — MatMul's i-k-j inner loop. The 8-wide unroll works on
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

// matmulRows accumulates rows [r0,r1) of a × b into out.
func matmulRows(out, a, b []float32, r0, r1, k, n int) {
	for i := r0; i < r1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p, av := range arow {
			axpyUnrolled(orow, b[p*n:(p+1)*n], av)
		}
	}
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
