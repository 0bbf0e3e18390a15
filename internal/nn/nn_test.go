package nn

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"tensorbase/internal/tensor"
)

func TestLinearForwardKnownValues(t *testing.T) {
	l := &Linear{
		W: tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3), // (out=2, in=3)
		B: tensor.FromSlice([]float32{10, 20}, 2),
	}
	x := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	y := l.Forward(x)
	want := tensor.FromSlice([]float32{16, 35}, 1, 2)
	if !y.AlmostEqual(want, 1e-6) {
		t.Fatalf("linear = %v, want %v", y.Data(), want.Data())
	}
}

func TestLinearOutShape(t *testing.T) {
	l := NewLinear(rand.New(rand.NewSource(1)), 28, 256)
	got, err := l.OutShape([]int{5, 28})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[1] != 256 {
		t.Fatalf("OutShape = %v", got)
	}
	if _, err := l.OutShape([]int{5, 29}); err == nil {
		t.Fatal("wrong input width must error")
	}
	if _, err := l.OutShape([]int{5}); err == nil {
		t.Fatal("wrong rank must error")
	}
}

func TestLinearMemEstimateMatchesPaperRule(t *testing.T) {
	// Paper: (m,k)×(k,n) estimated as m·k + k·n + m·n elements.
	l := NewLinear(rand.New(rand.NewSource(1)), 28, 256)
	m, k, n := int64(1000), int64(28), int64(256)
	want := (m*k + k*n + m*n) * 4
	if got := l.MemEstimate([]int{1000, 28}); got != want {
		t.Fatalf("MemEstimate = %d, want %d", got, want)
	}
}

func TestConv2DOutShapeAndEstimate(t *testing.T) {
	c := NewConv2D(rand.New(rand.NewSource(1)), 64, 1, 1, 64)
	got, err := c.OutShape([]int{1, 112, 112, 64})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 112, 112, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutShape = %v, want %v", got, want)
		}
	}
	in := int64(112 * 112 * 64)
	kern := int64(64 * 64)
	out := int64(112 * 112 * 64)
	if est := c.MemEstimate([]int{1, 112, 112, 64}); est != (in+kern+out)*4 {
		t.Fatalf("MemEstimate = %d", est)
	}
	if _, err := c.OutShape([]int{1, 112, 112, 3}); err == nil {
		t.Fatal("channel mismatch must error")
	}
}

// A k×k conv runs im2col then Dense, so its estimate counts the
// (n·oh·ow, kh·kw·inC) patch matrix and covers what Forward allocates: the
// memory udf.OperatorUDF reserves before running it. The tiles' packing
// panels, at most one per kernel worker, come from a pool that outlives
// the call and are left out.
func TestConv2DEstimateCoversPatchMatrix(t *testing.T) {
	c := NewConv2D(rand.New(rand.NewSource(1)), 16, 3, 3, 8)
	shape := []int{2, 32, 32, 8}
	in, patch := int64(2*32*32*8), int64(2*30*30*3*3*8)
	kern, out := int64(16*3*3*8), int64(2*30*30*16)
	est := c.MemEstimate(shape)
	if want := (in + patch + kern + out) * 4; est != want {
		t.Fatalf("MemEstimate = %d, want %d", est, want)
	}
	panels := int64(runtime.GOMAXPROCS(0)) * int64(unsafe.Sizeof(tensor.Panel{}))
	x := tensor.New(shape...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Forward(x)
	runtime.ReadMemStats(&after)
	if used := int64(after.TotalAlloc-before.TotalAlloc) - panels; used > est {
		t.Fatalf("Forward allocated %d bytes past its panels, over its estimate %d", used, est)
	}
}

func TestFlattenShape(t *testing.T) {
	f := Flatten{}
	got, err := f.OutShape([]int{2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 60 {
		t.Fatalf("OutShape = %v", got)
	}
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Forward shape = %v", y.Shape())
	}
}

func TestModelShapeComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := FraudFC(rng, 256)
	out, err := m.OutShape(100)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 100 || out[1] != 2 {
		t.Fatalf("OutShape = %v", out)
	}
}

func TestNewModelRejectsIncompatibleLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, err := NewModel("bad", []int{1, 10},
		NewLinear(rng, 10, 5),
		NewLinear(rng, 6, 2), // expects width 6, gets 5
	)
	if err == nil {
		t.Fatal("incompatible layer chain must be rejected")
	}
}

func TestModelForwardEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := FraudFC(rng, 256)
	x := tensor.New(4, 28)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	out := m.Forward(x)
	if out.Dim(0) != 4 || out.Dim(1) != 2 {
		t.Fatalf("output shape %v", out.Shape())
	}
	for i := 0; i < 4; i++ {
		sum := 0.0
		for _, v := range out.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
}

func TestForwardFromMatchesFullForward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := FraudFC(rng, 64)
	x := tensor.New(3, 28)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	full := m.Forward(x.Clone())
	// Run layer 0 manually, then ForwardFrom(1).
	h := m.Layers[0].Forward(x.Clone())
	split := m.ForwardFrom(h, 1, nil)
	if !full.AlmostEqual(split, 1e-5) {
		t.Fatal("ForwardFrom disagrees with Forward")
	}
}

func TestMemEstimatesPerOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := EncoderFC(rng)
	ests, err := m.MemEstimates(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 3 {
		t.Fatalf("got %d estimates, want 3", len(ests))
	}
	// First linear: 1000·76 + 76·3072 + 1000·3072 floats.
	want := int64(1000*76+76*3072+1000*3072) * 4
	if ests[0].Bytes != want {
		t.Fatalf("estimate = %d, want %d", ests[0].Bytes, want)
	}
	maxB, err := m.MaxOpBytes(1000)
	if err != nil {
		t.Fatal(err)
	}
	if maxB < want {
		t.Fatalf("MaxOpBytes = %d < first-op estimate %d", maxB, want)
	}
}

func TestZooShapesMatchPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		m        *Model
		batch    int
		outShape []int
	}{
		{FraudFC(rng, 256), 10, []int{10, 2}},
		{FraudFC(rng, 512), 10, []int{10, 2}},
		{EncoderFC(rng), 10, []int{10, 768}},
		{DeepBenchConv1(rng), 1, []int{1, 112, 112, 64}},
	}
	for _, c := range cases {
		got, err := c.m.OutShape(c.batch)
		if err != nil {
			t.Fatalf("%s: %v", c.m.Name(), err)
		}
		if len(got) != len(c.outShape) {
			t.Fatalf("%s: OutShape %v, want %v", c.m.Name(), got, c.outShape)
		}
		for i := range got {
			if got[i] != c.outShape[i] {
				t.Fatalf("%s: OutShape %v, want %v", c.m.Name(), got, c.outShape)
			}
		}
	}
}

func TestAmazon14kDimsFullScale(t *testing.T) {
	in, hidden, out := Amazon14kDims(1)
	if in != 597540 || hidden != 1024 || out != 14588 {
		t.Fatalf("paper dims wrong: %d/%d/%d", in, hidden, out)
	}
	in, _, out = Amazon14kDims(100)
	if in != 5975 || out != 145 {
		t.Fatalf("scaled dims wrong: %d/%d", in, out)
	}
}

func TestLandCoverDims(t *testing.T) {
	hw, oc := LandCoverDims(1)
	if hw != 2500 || oc != 2048 {
		t.Fatalf("paper dims wrong: %d/%d", hw, oc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := FraudFC(rng, 64)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != m.Name() {
		t.Fatalf("name = %q", got.Name())
	}
	x := tensor.New(2, 28)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	a := m.Forward(x.Clone())
	b := got.Forward(x.Clone())
	if !a.AlmostEqual(b, 1e-6) {
		t.Fatal("loaded model produces different output")
	}
}

func TestSaveLoadCNNRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := CacheCNN(rng, 12)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 12, 12, 1)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	a := m.Forward(x.Clone())
	b := got.Forward(x.Clone())
	if !a.AlmostEqual(b, 1e-5) {
		t.Fatal("loaded CNN produces different output")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOPE-not-a-model"))); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := FraudFC(rng, 16)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated model must be rejected")
	}
}

// Property: Save∘Load is the identity on model outputs for random widths.
func TestSaveLoadProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := 1 + r.Intn(16)
		hid := 1 + r.Intn(16)
		out := 2 + r.Intn(8)
		m := MustModel("p", []int{1, in},
			NewLinear(r, in, hid), ReLU{}, NewLinear(r, hid, out), Softmax{})
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			return false
		}
		got, err := Load(&buf)
		if err != nil {
			return false
		}
		x := tensor.New(3, in)
		for i := range x.Data() {
			x.Data()[i] = r.Float32()
		}
		return m.Forward(x.Clone()).AlmostEqual(got.Forward(x.Clone()), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainLearnsLinearlySeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, d = 400, 8
	x := tensor.New(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < d; j++ {
			center := float32(-1)
			if cls == 1 {
				center = 1
			}
			x.Set(center+float32(rng.NormFloat64())*0.3, i, j)
		}
	}
	m := MustModel("sep", []int{1, d},
		NewLinear(rng, d, 16), ReLU{}, NewLinear(rng, 16, 2), Softmax{})
	if _, err := Train(m, x, labels, TrainConfig{Epochs: 10, BatchSize: 32, LR: 0.1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(m, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %.3f after training, want >= 0.95", acc)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, d = 200, 4
	x := tensor.New(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 3
		for j := 0; j < d; j++ {
			x.Set(float32(labels[i])+float32(rng.NormFloat64())*0.2, i, j)
		}
	}
	m := MustModel("loss", []int{1, d},
		NewLinear(rng, d, 8), ReLU{}, NewLinear(rng, 8, 3), Softmax{})
	first, err := Train(m, x, labels, TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	last, err := Train(m, x, labels, TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: first-epoch %.4f, final %.4f", first, last)
	}
}

func TestTrainCNNHeadOnFixedConvFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, side = 120, 10
	x := tensor.New(n, side, side, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < side*side; j++ {
			v := float32(rng.NormFloat64()) * 0.1
			if cls == 1 {
				v += 1
			}
			x.Data()[i*side*side+j] = v
		}
	}
	m := CacheCNN(rng, side)
	if _, err := Train(m, x, labels, TrainConfig{Epochs: 6, BatchSize: 20, LR: 0.05, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(m, x, labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("CNN head accuracy %.3f, want >= 0.9", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := EncoderFC(rng) // no Softmax tail
	if _, err := Train(m, tensor.New(2, 76), []int{0, 1}, TrainConfig{}); err == nil {
		t.Fatal("training a non-Softmax model must error")
	}
	m2 := FraudFC(rng, 16)
	if _, err := Train(m2, tensor.New(2, 28), []int{0}, TrainConfig{}); err == nil {
		t.Fatal("label/sample mismatch must error")
	}
	if _, err := Train(m2, tensor.New(2, 28), []int{0, 5}, TrainConfig{}); err == nil {
		t.Fatal("out-of-range label must error")
	}
}

func TestPredictArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := FraudFC(rng, 16)
	pred, err := m.Predict(tensor.New(3, 28))
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 3 {
		t.Fatalf("got %d predictions", len(pred))
	}
	for _, p := range pred {
		if p != 0 && p != 1 {
			t.Fatalf("class %d out of range", p)
		}
	}
}

// Gradient check: convBackward's analytic gradients must match central
// finite differences of the loss L = ⟨conv(x, K), dY⟩.
func TestConvBackwardGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	x := tensor.New(1, 4, 4, 2)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	l := NewConv2D(rng, 3, 2, 2, 2)
	dy := tensor.New(1, 3, 3, 3)
	for i := range dy.Data() {
		dy.Data()[i] = float32(rng.NormFloat64())
	}
	loss := func(xx, kk *tensor.Tensor) float64 {
		y := (&Conv2D{K: kk}).Forward(xx)
		var s float64
		for i, v := range y.Data() {
			s += float64(v) * float64(dy.Data()[i])
		}
		return s
	}

	// Analytic gradients: lr=1 so K_before − K_after = dK.
	kBefore := l.K.Clone()
	lcopy := &Conv2D{K: l.K.Clone()}
	dx := convBackward(lcopy, x, dy, 1)
	const eps = 1e-3
	for _, idx := range []int{0, 5, 11, 17, 23} {
		analytic := float64(kBefore.Data()[idx] - lcopy.K.Data()[idx])
		kp := kBefore.Clone()
		km := kBefore.Clone()
		kp.Data()[idx] += eps
		km.Data()[idx] -= eps
		numeric := (loss(x, kp) - loss(x, km)) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dK[%d]: analytic %.5f vs numeric %.5f", idx, analytic, numeric)
		}
	}
	for _, idx := range []int{0, 7, 15, 31} {
		analytic := float64(dx.Data()[idx])
		xp := x.Clone()
		xm := x.Clone()
		xp.Data()[idx] += eps
		xm.Data()[idx] -= eps
		numeric := (loss(xp, kBefore) - loss(xm, kBefore)) / (2 * eps)
		if math.Abs(analytic-numeric) > 1e-2*(1+math.Abs(numeric)) {
			t.Fatalf("dX[%d]: analytic %.5f vs numeric %.5f", idx, analytic, numeric)
		}
	}
}

func TestTrainCNNEndToEnd(t *testing.T) {
	// With conv backprop the whole CNN trains, not just the FC head:
	// classes distinguishable only through a learned spatial filter.
	rng := rand.New(rand.NewSource(202))
	const n, side = 160, 8
	x := tensor.New(n, side, side, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		for j := 0; j < side*side; j++ {
			x.Data()[i*side*side+j] = float32(rng.NormFloat64()) * 0.1
		}
		// Class 1 has a bright 2×2 corner patch; class 0 does not.
		if cls == 1 {
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					x.Set(1.5, i, dy, dx, 0)
				}
			}
		}
	}
	m := MustModel("tinycnn", []int{1, side, side, 1},
		NewConv2D(rng, 4, 3, 3, 1), ReLU{},
		Flatten{},
		NewLinear(rng, (side-2)*(side-2)*4, 2), Softmax{},
	)
	if _, err := Train(m, x, labels, TrainConfig{Epochs: 8, BatchSize: 16, LR: 0.05, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(m, x.Clone(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("end-to-end CNN accuracy %.3f, want >= 0.95", acc)
	}
}
