package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tensorbase/internal/testutil"
)

// The special inputs where a kernel that reorders, fuses or flushes would
// show: signed zeros, subnormals, infinities, values that overflow, and
// NaNs of both signs (ReLU keeps a positive NaN and zeroes a negative one).
//
// One case never mixes NaN signs. When two NaNs of different signs meet in
// one multiply or add, x86 returns the first operand, and the Go compiler's
// register allocation decides which operand that is: a -race build of the
// Go kernel picks differently from a plain one. So no kernel can promise
// the Go kernel's bits there. The hardware generates negative NaNs (0·Inf,
// Inf−Inf), so hwNaNs pairs the negative NaN with infinities and overflow,
// and quietNaNs keeps the positive NaN away from both.
var (
	hwNaNs = []float32{
		0, float32(math.Copysign(0, -1)), 1e-40, -1e-40,
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e38, -1e38,
		math.Float32frombits(0xffc00000),
	}
	quietNaNs = []float32{
		0, float32(math.Copysign(0, -1)), 1e-40, -1e-40,
		math.Float32frombits(0x7fc00000),
	}
)

// specialTensor returns a normal-valued (rows,cols) tensor in which about
// half the rows carry one to three values drawn from specials.
func specialTensor(rng *rand.Rand, specials []float32, rows, cols int) *Tensor {
	t := randTensor(rng, rows, cols)
	if cols == 0 {
		return t
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for s := rng.Intn(3); s >= 0; s-- {
			t.data[i*cols+rng.Intn(cols)] = specials[rng.Intn(len(specials))]
		}
	}
	return t
}

// specialsFor alternates the two special-value families across cases.
func specialsFor(i int) []float32 {
	if i%3 == 2 {
		return quietNaNs
	}
	return hwNaNs
}

// sameBits compares bit patterns; a NaN matches any NaN.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// matmulTransBRows is the Go kernel: rows [r0,r1) of a × bᵀ through
// denseRows with the vector kernels off.
func matmulTransBRows(out, a, b []float32, r0, r1, k, n int) {
	denseRows(out, a, b, nil, false, false, false, nil, r0, r1, k, n)
}

// denseOracle is Dense through the Go kernel and the separate bias and
// ReLU passes.
func denseOracle(x, w, bias *Tensor, relu bool) *Tensor {
	m, k, n := x.shape[0], x.shape[1], w.shape[0]
	out := New(m, n)
	matmulTransBRows(out.data, x.data, w.data, 0, m, k, n)
	if bias != nil {
		AddBiasRowsInto(out, bias)
	}
	if relu {
		ReLUInto(out)
	}
	return out
}

type denseCase struct{ m, k, n int }

// denseCases spans m ∈ 1..13 ∪ {256}, k ∈ 0..70 ∪ {28, 1024} and
// n ∈ 1..70 ∪ {2, 32, 256, 1024}: every small (m,k) pair and every small n
// appear, with the partner dimensions cycling so every tile, tail and
// leftover-row path meets every remainder.
func denseCases() []denseCase {
	var cs []denseCase
	for m := 1; m <= 13; m++ {
		for k := 0; k <= 70; k++ {
			cs = append(cs, denseCase{m, k, 1 + (7*m+3*k)%70})
		}
	}
	for n := 1; n <= 70; n++ {
		cs = append(cs, denseCase{4 + n%10, (5 * n) % 71, n})
	}
	for _, k := range []int{28, 1024} {
		for _, n := range []int{2, 32, 256, 1024} {
			if k*n <= 32*1024 {
				cs = append(cs, denseCase{256, k, n})
			} else {
				cs = append(cs, denseCase{13, k, n})
			}
		}
	}
	return append(cs, denseCase{256, 1024, 1024})
}

// Dense must return the Go kernel's exact bits on every shape, with and
// without bias and ReLU, for inputs full of special values.
func TestDenseMatchesGoKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i, c := range denseCases() {
		sp := specialsFor(i)
		x := specialTensor(rng, sp, c.m, c.k)
		w := specialTensor(rng, sp, c.n, c.k)
		var bias *Tensor
		if i%2 == 1 {
			bias = specialTensor(rng, sp, 1, c.n).Reshape(c.n)
		}
		relu := i%4 >= 2
		what := fmt.Sprintf("(%d,%d)×(%d,%d)ᵀ bias=%v relu=%v", c.m, c.k, c.n, c.k, bias != nil, relu)
		sameBits(t, what, Dense(x, w, bias, relu).data, denseOracle(x, w, bias, relu).data)
	}
}

// dirty returns an (m,n) tensor of NaNs and infinities: an output buffer
// whose old contents would show if a kernel read or kept any of them.
func dirty(m, n int) *Tensor {
	t := New(m, n)
	for i := range t.data {
		t.data[i] = []float32{float32(math.NaN()), float32(math.Inf(1)), -1e30}[i%3]
	}
	return t
}

// DenseInto and DenseQ8Into assign every output element: into a buffer
// full of NaNs they return the bits of Dense and DenseQ8 into a fresh one,
// on every shape the kernels fork on.
func TestDenseIntoOverwritesEveryElement(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i, c := range denseCases() {
		sp := specialsFor(i)
		x := specialTensor(rng, sp, c.m, c.k)
		w := specialTensor(rng, sp, c.n, c.k)
		var bias *Tensor
		if i%2 == 1 {
			bias = randTensor(rng, c.n)
		}
		relu := i%4 >= 2
		out := dirty(c.m, c.n)
		DenseInto(out, x, w, bias, relu)
		sameBits(t, fmt.Sprintf("%v bias=%v relu=%v", c, bias != nil, relu), out.data, Dense(x, w, bias, relu).data)
	}
	for i, c := range []denseCase{{1, 28, 8}, {5, 27, 17}, {256, 28, 1024}, {13, 255, 33}} {
		x, w8, ws := q8Operands(rng, specialsFor(i), c.m, c.k, c.n)
		pairs := NewQ8Pairs(w8, ws, c.n, c.k)
		bias := randTensor(rng, c.n)
		out := dirty(c.m, c.n)
		DenseQ8Into(out, x, pairs, bias, i%2 == 0)
		sameBits(t, fmt.Sprintf("q8 %v", c), out.data, DenseQ8(x, pairs, bias, i%2 == 0).data)
	}
}

// A serial dense product allocates nothing beyond its output: DenseInto
// and DenseQ8Into allocate nothing at all once the panel and scratch pools
// are warm.
func TestDenseIntoSerialAllocatesNothing(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector drops pooled scratch at random")
	}
	SetMaxWorkers(1)
	t.Cleanup(func() { SetMaxWorkers(0) })
	rng := rand.New(rand.NewSource(52))
	x, w, bias := randTensor(rng, 256, 28), randTensor(rng, 1024, 28), randTensor(rng, 1024)
	_, w8, ws := q8Operands(rng, quietNaNs, 256, 28, 1024)
	pairs := NewQ8Pairs(w8, ws, 1024, 28)
	out := New(256, 1024)
	if n := testing.AllocsPerRun(20, func() { DenseInto(out, x, w, bias, true) }); n != 0 {
		t.Fatalf("DenseInto allocated %v times a call", n)
	}
	if n := testing.AllocsPerRun(20, func() { DenseQ8Into(out, x, pairs, bias, true) }); n != 0 {
		t.Fatalf("DenseQ8Into allocated %v times a call", n)
	}
	m, n := x.Dim(0), w.Dim(0)
	want := testing.AllocsPerRun(20, func() { benchSink = New(m, n) })
	if n := testing.AllocsPerRun(20, func() { benchSink = Dense(x, w, bias, true) }); n != want {
		t.Fatalf("Dense allocated %v times a call, want %v (its output)", n, want)
	}
}

// Fanning out across row bands must not change a bit: every band runs the
// same kernels, and a band's leftover rows take the 1-row tile.
func TestDenseWorkersBitIdentical(t *testing.T) {
	withProcs(t, 2)
	withBudget(t, 2)
	rng := rand.New(rand.NewSource(46))
	for i, c := range []denseCase{{256, 28, 1024}, {257, 70, 45}, {250, 300, 33}, {256, 1024, 2}} {
		x := specialTensor(rng, specialsFor(i), c.m, c.k)
		w := specialTensor(rng, specialsFor(i), c.n, c.k)
		bias := randTensor(rng, c.n)
		SetMaxWorkers(1)
		serial := Dense(x, w, bias, true)
		SetMaxWorkers(2)
		before := Kernels().FanOuts
		par := Dense(x, w, bias, true)
		SetMaxWorkers(0)
		if Kernels().FanOuts == before {
			t.Fatalf("%v: the 2-worker run did not fan out", c)
		}
		sameBits(t, fmt.Sprintf("%v workers 2 vs 1", c), par.data, serial.data)
	}
}

// Row i of a batched product must equal row i computed alone (m = 1, the
// Go loop): the invariant the result cache's miss compaction and the
// pipeline rely on.
func TestDenseRowIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i, c := range []denseCase{{256, 28, 1024}, {256, 1024, 2}, {37, 70, 37}} {
		x := specialTensor(rng, specialsFor(i), c.m, c.k)
		w := specialTensor(rng, specialsFor(i), c.n, c.k)
		bias := randTensor(rng, c.n)
		full := Dense(x, w, bias, true)
		for i := 0; i < c.m; i++ {
			row := FromSlice(x.data[i*c.k:(i+1)*c.k], 1, c.k)
			sameBits(t, fmt.Sprintf("%v row %d", c, i), Dense(row, w, bias, true).data, full.data[i*c.n:(i+1)*c.n])
		}
	}
}

// requireVectorKernels skips where the host cannot run the AVX2 tiles and
// fails where it can but the kernels' own detection says otherwise.
func requireVectorKernels(t *testing.T) {
	t.Helper()
	has, known := testutil.HostAVX2()
	if !known || !has {
		t.Skip("host has no AVX2 tiles")
	}
	if !haveAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 but the CPUID check found none")
	}
}

func TestVectorCallsCount(t *testing.T) {
	requireVectorKernels(t)
	rng := rand.New(rand.NewSource(48))
	for _, c := range []struct {
		m, k, n int
		want    uint64
	}{
		{256, 28, 1024, 1}, // tiles
		{256, 1024, 2, 1},  // tail dots
		{1, 28, 1024, 0},   // one row: Go loop
		{3, 28, 1024, 0},
		{256, 28, 8, 0}, // nothing a vector kernel covers
		{256, 0, 32, 0},
	} {
		x, w := randTensor(rng, c.m, c.k), randTensor(rng, c.n, c.k)
		before := Kernels().VectorCalls
		Dense(x, w, nil, false)
		if got := Kernels().VectorCalls - before; got != c.want {
			t.Fatalf("(%d,%d,%d): vector calls +%d, want +%d", c.m, c.k, c.n, got, c.want)
		}
	}
	// An accumulating product is a vector call exactly where the tiles run:
	// its n mod 4 tail sums in k order in Go, with no SSE dot.
	for _, c := range []struct {
		m, k, n int
		want    uint64
	}{
		{64, 64, 64, 1},
		{4, 7, 16, 1},
		{3, 64, 64, 0},
		{64, 64, 2, 0},
		{64, 64, 12, 0},
	} {
		x, w := randTensor(rng, c.m, c.k), randTensor(rng, c.n, c.k)
		before := Kernels().VectorCalls
		DenseAddInto(New(c.m, c.n), x, w, new(Panel))
		if got := Kernels().VectorCalls - before; got != c.want {
			t.Fatalf("DenseAddInto (%d,%d,%d): vector calls +%d, want +%d", c.m, c.k, c.n, got, c.want)
		}
	}
}

// q8Operands returns int8 weights with per-channel scales and f32
// activations with special values and an all-zero row.
func q8Operands(rng *rand.Rand, specials []float32, m, k, n int) (x *Tensor, w8 []int8, ws []float32) {
	x = specialTensor(rng, specials, m, k)
	if m > 2 {
		for p := 0; p < k; p++ {
			x.data[k+p] = 0
		}
	}
	w8 = make([]int8, n*k)
	for i := range w8 {
		w8[i] = int8(rng.Intn(255) - 127)
	}
	ws = make([]float32, n)
	for i := range ws {
		ws[i] = rng.Float32()/64 + 1e-4
	}
	return x, w8, ws
}

// q8Oracle is DenseQ8 through QuantizeRowsQ8, MatMulQ8Into and the separate
// bias and ReLU passes.
func q8Oracle(x *Tensor, w8 []int8, ws []float32, bias *Tensor, relu bool) *Tensor {
	m, k, n := x.shape[0], x.shape[1], len(ws)
	a8 := make([]int8, m*k)
	as := make([]float32, m)
	QuantizeRowsQ8(a8, as, x.data, m, k)
	out := New(m, n)
	MatMulQ8Into(out, a8, as, w8, ws, m, k, n)
	if bias != nil {
		AddBiasRowsInto(out, bias)
	}
	if relu {
		ReLUInto(out)
	}
	return out
}

func TestDenseQ8MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	i := 0
	for _, m := range []int{1, 3, 4, 5, 13, 256} {
		for _, k := range []int{1, 2, 3, 7, 27, 28, 29, 70, 255} {
			for _, n := range []int{1, 8, 15, 16, 17, 33, 256} {
				i++
				sp := specialsFor(i)
				x, w8, ws := q8Operands(rng, sp, m, k, n)
				var bias *Tensor
				if i%2 == 1 {
					bias = specialTensor(rng, sp, 1, n).Reshape(n)
				}
				relu := i%4 >= 2
				got := DenseQ8(x, NewQ8Pairs(w8, ws, n, k), bias, relu)
				what := fmt.Sprintf("(%d,%d)×(%d,%d)ᵀ bias=%v relu=%v", m, k, n, k, bias != nil, relu)
				sameBits(t, what, got.data, q8Oracle(x, w8, ws, bias, relu).data)
			}
		}
	}
}

func TestDenseQ8WorkersBitIdentical(t *testing.T) {
	withProcs(t, 2)
	withBudget(t, 2)
	rng := rand.New(rand.NewSource(50))
	m, k, n := 259, 29, 263
	x, w8, ws := q8Operands(rng, hwNaNs, m, k, n)
	pairs := NewQ8Pairs(w8, ws, n, k)
	bias := randTensor(rng, n)
	SetMaxWorkers(1)
	serial := DenseQ8(x, pairs, bias, true)
	SetMaxWorkers(0)
	before := Kernels().FanOuts
	par := DenseQ8(x, pairs, bias, true)
	if Kernels().FanOuts == before {
		t.Fatal("the 2-worker run did not fan out")
	}
	sameBits(t, "workers 2 vs 1", par.data, serial.data)
	sameBits(t, "oracle", serial.data, q8Oracle(x, w8, ws, bias, true).data)
}

// The vector quantizer must reproduce quantQ8 on every value, including
// the rounding and clamping edges.
func TestQuantPairsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	edges := []float32{0.5, -0.5, 0.49999997, 1.5, -2.5, 126.49999, 126.5, -126.5, 127, 127.5, -128, 1e30}
	for _, k := range []int{1, 2, 3, 4, 5, 8, 28, 29, 31} {
		for trial := 0; trial < 20; trial++ {
			x := specialTensor(rng, specialsFor(trial), 1, k).data
			for p := range x {
				if rng.Intn(3) == 0 {
					x[p] = edges[rng.Intn(len(edges))]
				}
			}
			inv := []float32{1, 0, 0.37, 1.0 / 3}[trial%4]
			k2 := (k + 1) / 2
			got, want := make([]int32, k2), make([]int32, k2)
			quantPairs(got, x, inv)
			quantPairsGo(want, x, inv)
			for q := range want {
				if got[q] != want[q] {
					t.Fatalf("k=%d inv=%v word %d = %#x, want %#x (inputs %v)", k, inv, q, got[q], want[q], x[2*q:min(2*q+2, k)])
				}
			}
			if g, w := maxAbsF32(x), maxAbsGo(x); math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("k=%d maxAbs = %v, want %v", k, g, w)
			}
		}
	}
}

func BenchmarkKernelTransBVector(bm *testing.B) {
	a, b := benchOperands(rand.New(rand.NewSource(20)))
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		benchSink = Dense(a, b, nil, false) // includes the per-call panel pack
	}
}

func BenchmarkKernelQ8Vector(bm *testing.B) {
	rng := rand.New(rand.NewSource(20))
	a, b := benchOperands(rng)
	b8 := make([]int8, benchN*benchK)
	bScales := make([]float32, benchN)
	QuantizeRowsQ8(b8, bScales, b.Data(), benchN, benchK)
	pairs := NewQ8Pairs(b8, bScales, benchN, benchK)
	bm.ReportAllocs()
	for i := 0; i < bm.N; i++ {
		benchSink = DenseQ8(a, pairs, nil, false) // includes activation quantization
	}
}

var benchSink *Tensor
