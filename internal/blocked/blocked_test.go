package blocked

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"tensorbase/internal/memlimit"
	"tensorbase/internal/storage"
	"tensorbase/internal/tensor"
	"tensorbase/internal/testutil"
)

func newPool(t *testing.T, frames int) *storage.BufferPool {
	t.Helper()
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "b.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return storage.NewBufferPool(d, frames)
}

func randMat(r *rand.Rand, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	for i := range t.Data() {
		t.Data()[i] = float32(r.NormFloat64())
	}
	return t
}

func TestStoreAssembleRoundTrip(t *testing.T) {
	pool := newPool(t, 16)
	rng := rand.New(rand.NewSource(1))
	in := randMat(rng, 37, 53) // deliberately not block-aligned
	m, err := Store(pool, in, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRowBlocks() != 3 || m.NumColBlocks() != 4 {
		t.Fatalf("blocks = %dx%d", m.NumRowBlocks(), m.NumColBlocks())
	}
	out, err := m.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Fatal("assemble != original")
	}
}

func TestBlockFetchEdgeClipping(t *testing.T) {
	pool := newPool(t, 16)
	in := tensor.New(10, 10)
	m, err := Store(pool, in, 8)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := m.Block(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Dim(0) != 2 || blk.Dim(1) != 2 {
		t.Fatalf("edge block shape %v, want (2,2)", blk.Shape())
	}
	if _, err := m.Block(5, 5); err == nil {
		t.Fatal("missing block must error")
	}
}

func TestStoreRejectsBadInputs(t *testing.T) {
	pool := newPool(t, 8)
	if _, err := Store(pool, tensor.New(2, 2, 2), 8); err == nil {
		t.Fatal("3-D tensor must be rejected")
	}
	if _, err := Store(pool, tensor.New(4, 4), 0); err == nil {
		t.Fatal("zero block size must be rejected")
	}
	if _, err := Store(pool, tensor.New(4, 4), 10000); err == nil {
		t.Fatal("block larger than a page must be rejected")
	}
}

func TestAppendBlockValidatesShape(t *testing.T) {
	pool := newPool(t, 8)
	m, err := NewEmpty(pool, 10, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBlock(0, 0, tensor.New(4, 4)); err == nil {
		t.Fatal("wrong block shape must be rejected")
	}
	if err := m.AppendBlock(1, 1, tensor.New(2, 2)); err != nil {
		t.Fatalf("edge block rejected: %v", err)
	}
}

func TestMultiplyStreamingMatchesDense(t *testing.T) {
	pool := newPool(t, 32)
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 30, 45)
	w := randMat(rng, 25, 45) // (out,in)
	ab, err := Store(pool, a, 16)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Store(pool, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MultiplyStreaming(pool, ab, bb, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Dense(a, w, nil, false)
	if !got.AlmostEqual(want, 1e-3) {
		t.Fatal("streaming blocked multiply disagrees with Dense")
	}
}

func TestMultiplyRelationalMatchesDense(t *testing.T) {
	pool := newPool(t, 64)
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 20, 33)
	w := randMat(rng, 17, 33) // (out,in)
	ab, err := Store(pool, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Store(pool, w, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MultiplyRelational(pool, ab, bb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Dense(a, w, nil, false)
	if !got.AlmostEqual(want, 1e-3) {
		t.Fatal("relational blocked multiply (join + aggregation) disagrees with Dense")
	}
}

// Property: the streaming multiply and its join + aggregation oracle agree
// with the dense product for random shapes and block sizes.
func TestMultiplyEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(24)
		k := 1 + r.Intn(24)
		n := 1 + r.Intn(24)
		bs := 1 + r.Intn(12)
		pool := newPoolQuick()
		a := randMat(r, m, k)
		w := randMat(r, n, k) // (out,in)
		ab, err := Store(pool, a, bs)
		if err != nil {
			return false
		}
		bb, err := Store(pool, w, bs)
		if err != nil {
			return false
		}
		want := tensor.MatMul(a, tensor.Transpose(w))
		cs, err := MultiplyStreaming(pool, ab, bb, nil)
		if err != nil {
			return false
		}
		gs, err := cs.Assemble()
		if err != nil || !gs.AlmostEqual(want, 1e-2) {
			return false
		}
		cr, err := MultiplyRelational(pool, ab, bb)
		if err != nil {
			return false
		}
		gr, err := cr.Assemble()
		return err == nil && gr.AlmostEqual(want, 1e-2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// newPoolQuick builds a pool for property iterations without a *testing.T.
// Each call gets a distinct backing file in a shared temp dir.
func newPoolQuick() *storage.BufferPool {
	f, err := os.CreateTemp(tempDirQuick, "quick-*.db")
	if err != nil {
		panic(err)
	}
	path := f.Name()
	f.Close()
	d, err := storage.OpenDisk(path)
	if err != nil {
		panic(err)
	}
	return storage.NewBufferPool(d, 64)
}

var tempDirQuick string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "blocked-test-")
	if err != nil {
		panic(err)
	}
	tempDirQuick = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestMultiplyShapeMismatch(t *testing.T) {
	pool := newPool(t, 16)
	a, _ := Store(pool, tensor.New(4, 5), 4)
	b, _ := Store(pool, tensor.New(6, 4), 4)
	if _, err := MultiplyStreaming(pool, a, b, nil); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if _, err := MultiplyRelational(pool, a, b); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestMultiplyBlockSizeMismatch(t *testing.T) {
	pool := newPool(t, 16)
	a, _ := Store(pool, tensor.New(4, 4), 4)
	b, _ := Store(pool, tensor.New(4, 4), 2)
	if _, err := MultiplyStreaming(pool, a, b, nil); err == nil {
		t.Fatal("block size mismatch must error")
	}
}

func TestMultiplyStreamingRespectsBudget(t *testing.T) {
	pool := newPool(t, 32)
	rng := rand.New(rand.NewSource(4))
	a, _ := Store(pool, randMat(rng, 64, 64), 16)
	b, _ := Store(pool, randMat(rng, 64, 64), 16)
	tiny := memlimit.NewBudget(100) // far below the C working set
	if _, err := MultiplyStreaming(pool, a, b, tiny); !errors.Is(err, memlimit.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
	// And it must release its reservation on failure.
	if tiny.Reserved() != 0 {
		t.Fatalf("leaked %d bytes", tiny.Reserved())
	}
	big := memlimit.NewBudget(1 << 20)
	if _, err := MultiplyStreaming(pool, a, b, big); err != nil {
		t.Fatal(err)
	}
	if big.Reserved() != 0 {
		t.Fatalf("budget not released: %d", big.Reserved())
	}
}

func TestMultiplyLargerThanBufferPool(t *testing.T) {
	// Operands spanning many more pages than the pool has frames must
	// still multiply correctly — the buffer pool spills and reloads.
	pool := newPool(t, 4)
	rng := rand.New(rand.NewSource(5))
	a := randMat(rng, 100, 120)
	w := randMat(rng, 80, 120) // (out,in)
	ab, err := Store(pool, a, 16)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Store(pool, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MultiplyStreaming(pool, ab, bb, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(tensor.Dense(a, w, nil, false), 1e-2) {
		t.Fatal("result wrong under buffer-pool pressure")
	}
	st := pool.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions with a 4-frame pool")
	}
}

func TestStoreIm2ColMatchesDenseIm2Col(t *testing.T) {
	pool := newPool(t, 32)
	rng := rand.New(rand.NewSource(6))
	in := tensor.New(2, 7, 6, 3)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	f, err := StoreIm2Col(pool, in, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.Im2Col(in, 2, 2)
	if !got.Equal(want) {
		t.Fatal("blocked im2col disagrees with dense im2col")
	}
}

func TestConv2DRelationalMatchesDirectConv(t *testing.T) {
	pool := newPool(t, 64)
	rng := rand.New(rand.NewSource(7))
	in := tensor.New(1, 9, 9, 3)
	for i := range in.Data() {
		in.Data()[i] = float32(rng.NormFloat64())
	}
	kern := tensor.New(5, 1, 1, 3) // LandCover-style 1×1 kernels
	for i := range kern.Data() {
		kern.Data()[i] = float32(rng.NormFloat64())
	}
	c, err := Conv2DRelational(pool, in, kern, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// The direct convolution of a 1×1 kernel: each output channel sums the
	// pixel's input channels in order, each product rounded to float32. The
	// block product sums every column in k order too, so the bits agree.
	px, ic := in.Reshape(81, 3).Data(), 3
	for p := 0; p < 81; p++ {
		for o := 0; o < 5; o++ {
			var want float32
			for ch := 0; ch < ic; ch++ {
				want += float32(px[p*ic+ch] * kern.Data()[o*ic+ch])
			}
			if g := got.At(p, o); math.Float32bits(g) != math.Float32bits(want) {
				t.Fatalf("pixel %d channel %d: relational conv %v, direct conv %v", p, o, g, want)
			}
		}
	}
}

// linearBlocks runs a relation-centric Linear — the streaming product with
// x and the (out,in) weight w as block relations, then the bias and ReLU
// block maps — on the given worker count, and assembles the result.
func linearBlocks(t *testing.T, x, w, bias *tensor.Tensor, bs, workers int) *tensor.Tensor {
	t.Helper()
	pool := newPool(t, 64)
	xb, err := Store(pool, x, bs)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := Store(pool, w, bs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MultiplyStreamingWorkers(pool, xb, wb, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = AddBiasBlocks(pool, c, bias.Data()); err != nil {
		t.Fatal(err)
	}
	if c, err = ReLUBlocks(pool, c); err != nil {
		t.Fatal(err)
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// A relation-centric Linear with bias and ReLU returns the UDF-centric
// Dense's bits whenever the output width is a multiple of 4, on every
// worker count — including activation blocks more than half zero meeting
// infinite and NaN weights, where 0·Inf is NaN in both representations.
func TestLinearBlocksMatchDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	nan := math.Float32frombits(0xffc00000) // the NaN the hardware makes
	specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), nan}
	for _, c := range []struct{ m, k, n, bs int }{
		{37, 150, 48, 16},
		{3, 70, 20, 16},
		{70, 130, 132, 64},
	} {
		x := randMat(rng, c.m, c.k)
		for i := range x.Data() {
			if rng.Intn(3) != 0 {
				x.Data()[i] = 0
			}
		}
		w := randMat(rng, c.n, c.k)
		for i := 0; i < c.n; i += 3 {
			w.Data()[i*c.k+rng.Intn(c.k)] = specials[rng.Intn(len(specials))]
		}
		bias := randMat(rng, 1, c.n).Reshape(c.n)
		want := tensor.Dense(x, w, bias, true)
		for _, workers := range []int{1, 2, 4} {
			got := linearBlocks(t, x, w, bias, c.bs, workers)
			for i, g := range got.Data() {
				d := want.Data()[i]
				if math.Float32bits(g) != math.Float32bits(d) && !(g != g && d != d) {
					t.Fatalf("(%d,%d)×(%d,%d)ᵀ bs=%d workers=%d: element %d = %v, Dense %v",
						c.m, c.k, c.n, c.k, c.bs, workers, i, g, d)
				}
			}
		}
	}
}

// Every block product of the streaming multiply runs on the vector tiles
// when its blocks have at least 4 rows and 16 columns: one vector call per
// block product.
func TestMultiplyStreamingVectorCalls(t *testing.T) {
	if has, known := testutil.HostAVX2(); !known || !has {
		t.Skip("host has no AVX2 tiles")
	}
	rng := rand.New(rand.NewSource(18))
	pool := newPool(t, 64)
	xb, err := Store(pool, randMat(rng, 36, 150), 16) // row blocks of 16, 16, 4
	if err != nil {
		t.Fatal(err)
	}
	wb, err := Store(pool, randMat(rng, 48, 150), 16) // 3 column blocks of 16
	if err != nil {
		t.Fatal(err)
	}
	before := tensor.Kernels().VectorCalls
	if _, err := MultiplyStreamingWorkers(pool, xb, wb, nil, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := tensor.Kernels().VectorCalls-before, uint64(3*3*10); got != want {
		t.Fatalf("vector calls +%d, want one per block product, +%d", got, want)
	}
}
