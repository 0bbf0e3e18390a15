package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Len() != 6 {
		t.Fatalf("Len = %d, want 6", x.Len())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer expectPanic(t, "FromSlice with wrong length")
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset: ((2*4)+1)*5 + 3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatalf("row-major layout wrong: data[48] = %v", x.Data()[48])
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer expectPanic(t, "At out of bounds")
	New(2, 2).At(2, 0)
}

func TestAtWrongRankPanics(t *testing.T) {
	defer expectPanic(t, "At with wrong rank")
	New(2, 2).At(1)
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Fatal("Reshape must share data")
	}
}

func TestReshapeVolumeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "Reshape with wrong volume")
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestRow(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := x.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
}

func TestEqualAndAlmostEqual(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 2.0005}, 2)
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AlmostEqual(b, 1e-3) {
		t.Fatal("AlmostEqual within tolerance should hold")
	}
	if a.AlmostEqual(New(3), 1) {
		t.Fatal("AlmostEqual must reject shape mismatch")
	}
}

func TestSlice2DClampsAndCopies(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 3, 3)
	b := x.Slice2D(1, 5, 1, 5) // clamped to [1:3, 1:3]
	want := FromSlice([]float32{5, 6, 8, 9}, 2, 2)
	if !b.Equal(want) {
		t.Fatalf("Slice2D = %v, want %v", b, want)
	}
	b.Set(0, 0, 0)
	if x.At(1, 1) != 5 {
		t.Fatal("Slice2D must copy, not alias")
	}
}

func TestSetBlock2D(t *testing.T) {
	x := New(3, 3)
	x.SetBlock2D(FromSlice([]float32{1, 2, 3, 4}, 2, 2), 1, 1)
	if x.At(1, 1) != 1 || x.At(2, 2) != 4 || x.At(0, 0) != 0 {
		t.Fatalf("SetBlock2D wrong: %v", x.Data())
	}
}

func TestSetBlock2DOutOfBoundsPanics(t *testing.T) {
	defer expectPanic(t, "SetBlock2D out of bounds")
	New(2, 2).SetBlock2D(New(2, 2), 1, 1)
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{0.1, 0.9, 0.3, 0.5, 0.5, 0.2}, 2, 3)
	if got := x.ArgMaxRow(0); got != 1 {
		t.Fatalf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := x.ArgMaxRow(1); got != 0 {
		t.Fatalf("ArgMaxRow(1) = %d, want 0 (first of tie)", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "MatMul shape mismatch")
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(1, i, i)
	}
	if got := MatMul(a, id); !got.AlmostEqual(a, 1e-6) {
		t.Fatal("A × I must equal A")
	}
	if got := MatMul(id, a); !got.AlmostEqual(a, 1e-6) {
		t.Fatal("I × A must equal A")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Big enough to cross matmulParallelThreshold.
	a := randTensor(rng, 80, 100)
	b := randTensor(rng, 100, 90)
	got := MatMul(a, b)
	want := New(80, 90)
	matmulRows(want.Data(), a.Data(), b.Data(), 0, 80, 100, 90)
	if !got.AlmostEqual(want, 1e-4) {
		t.Fatal("parallel MatMul disagrees with serial kernel")
	}
}

func TestMatMulTransBMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 5, 8)
	w := randTensor(rng, 6, 8) // (out,in) layout
	got := Dense(a, w, nil, false)
	want := MatMul(a, Transpose(w))
	if !got.AlmostEqual(want, 1e-5) {
		t.Fatalf("Dense = %v, want %v", got, want)
	}
}

func TestMatMulTransBParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randTensor(rng, 64, 128)
	w := randTensor(rng, 64, 128)
	got := Dense(a, w, nil, false)
	want := New(64, 64)
	matmulTransBRows(want.Data(), a.Data(), w.Data(), 0, 64, 128, 64)
	if !got.AlmostEqual(want, 1e-4) {
		t.Fatal("parallel Dense disagrees with serial kernel")
	}
}

// Property: (A×B)×C == A×(B×C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b, c := randTensor(r, m, k), randTensor(r, k, n), randTensor(r, n, p)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		return left.AlmostEqual(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: distributivity A×(B+C) == A×B + A×C.
func TestMatMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b, c := randTensor(r, m, k), randTensor(r, k, n), randTensor(r, k, n)
		sum := b.Clone()
		AddInto(sum, c)
		left := MatMul(a, sum)
		right := MatMul(a, b)
		AddInto(right, MatMul(a, c))
		return left.AlmostEqual(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := Transpose(x)
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want) {
		t.Fatalf("Transpose = %v, want %v", got, want)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		x := randTensor(r, m, n)
		return Transpose(Transpose(x)).Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReLU(t *testing.T) {
	x := FromSlice([]float32{-1, 0, 2}, 3)
	ReLUInto(x)
	want := FromSlice([]float32{0, 0, 2}, 3)
	if !x.Equal(want) {
		t.Fatalf("ReLU = %v", x.Data())
	}
}

func TestSigmoidBounds(t *testing.T) {
	x := FromSlice([]float32{-100, 0, 100}, 3)
	SigmoidInto(x)
	if x.At(0) < 0 || x.At(0) > 1e-6 {
		t.Fatalf("sigmoid(-100) = %v", x.At(0))
	}
	if math.Abs(float64(x.At(1))-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", x.At(1))
	}
	if x.At(2) < 1-1e-6 || x.At(2) > 1 {
		t.Fatalf("sigmoid(100) = %v", x.At(2))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randTensor(rng, 4, 9)
	SoftmaxRowsInto(x)
	for i := 0; i < 4; i++ {
		var sum float64
		for _, v := range x.Row(i) {
			if v < 0 {
				t.Fatalf("softmax produced negative value %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v, want 1", i, sum)
		}
	}
}

func TestSoftmaxStableOnLargeInputs(t *testing.T) {
	x := FromSlice([]float32{1000, 1001, 1002}, 1, 3)
	SoftmaxRowsInto(x)
	for _, v := range x.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax not stable: %v", x.Data())
		}
	}
}

func TestAddBiasRows(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	AddBiasRowsInto(x, FromSlice([]float32{10, 20}, 2))
	want := FromSlice([]float32{11, 22, 13, 24}, 2, 2)
	if !x.Equal(want) {
		t.Fatalf("AddBiasRows = %v", x.Data())
	}
}

func TestDotAndL2(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := L2Distance(a, b); math.Abs(got-math.Sqrt(27)) > 1e-9 {
		t.Fatalf("L2 = %v", got)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// A 1×1 identity kernel over 1 channel must reproduce the input.
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2, 1)
	k := FromSlice([]float32{1}, 1, 1, 1, 1)
	out := Conv2D(in, k)
	if !out.Reshape(1, 2, 2, 1).AlmostEqual(in, 1e-6) {
		t.Fatalf("identity conv = %v", out.Data())
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3×3 single-channel input, 2×2 all-ones kernel: sliding window sums.
	in := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3, 1)
	k := FromSlice([]float32{1, 1, 1, 1}, 1, 2, 2, 1)
	out := Conv2D(in, k)
	want := FromSlice([]float32{12, 16, 24, 28}, 1, 2, 2, 1)
	if !out.AlmostEqual(want, 1e-6) {
		t.Fatalf("conv = %v, want %v", out.Data(), want.Data())
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	// 1×1 kernel mixing 2 channels into 1: out = 2*c0 + 3*c1.
	in := FromSlice([]float32{1, 10, 2, 20}, 1, 1, 2, 2)
	k := FromSlice([]float32{2, 3}, 1, 1, 1, 2)
	out := Conv2D(in, k)
	want := FromSlice([]float32{32, 64}, 1, 1, 2, 1)
	if !out.AlmostEqual(want, 1e-6) {
		t.Fatalf("conv = %v, want %v", out.Data(), want.Data())
	}
}

// Property: the im2col spatial rewriting computes the same convolution as
// the direct loop — the correctness condition behind the paper's
// relation-centric conversion of convolutions. Both sum each output in
// patch order, so every output channel Dense sums in k order (all of them
// when oc is a multiple of 4) has the direct loop's bits; the oc mod 4
// tail channels, which Dense sums with four partial accumulators, agree
// within rounding.
func TestConv2DIm2ColEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(2)
		h := 2 + r.Intn(6)
		w := 2 + r.Intn(6)
		c := 1 + r.Intn(3)
		kh := 1 + r.Intn(h)
		kw := 1 + r.Intn(w)
		oc := 1 + r.Intn(20)
		in := randTensor(r, n, h, w, c)
		k := randTensor(r, oc, kh, kw, c)
		direct := Conv2D(in, k)
		rewritten := Conv2DIm2Col(in, k)
		if !direct.AlmostEqual(rewritten, 1e-3) {
			return false
		}
		exact := oc &^ 3
		for i, v := range direct.Data() {
			if i%oc < exact && math.Float32bits(v) != math.Float32bits(rewritten.Data()[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A 1×1 kernel's patch matrix is the input reshaped, sharing its data.
func TestIm2Col1x1SharesInput(t *testing.T) {
	in := New(2, 3, 4, 5)
	f := Im2Col(in, 1, 1)
	if f.Dim(0) != 2*3*4 || f.Dim(1) != 5 || &f.Data()[0] != &in.Data()[0] {
		t.Fatalf("1×1 Im2Col shape %v, shares input: %v", f.Shape(), &f.Data()[0] == &in.Data()[0])
	}
}

func TestIm2ColShape(t *testing.T) {
	in := New(2, 5, 6, 3)
	f := Im2Col(in, 2, 2)
	if f.Dim(0) != 2*4*5 || f.Dim(1) != 2*2*3 {
		t.Fatalf("Im2Col shape = %v", f.Shape())
	}
}

func randTensor(r *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data() {
		t.Data()[i] = float32(r.NormFloat64())
	}
	return t
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s should panic", what)
	}
}
