package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"tensorbase/internal/tensor"
)

func trainedClusterModel(t *testing.T, seed int64) (*Model, *tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, d = 400, 12
	x := tensor.New(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		labels[i] = cls
		for j := 0; j < d; j++ {
			// Class c is bright in its own third of the dimensions.
			center := float32(0)
			if j/4 == cls {
				center = 2
			}
			x.Set(center+float32(rng.NormFloat64())*0.4, i, j)
		}
	}
	m := MustModel("quant-src", []int{1, d},
		NewLinear(rng, d, 24), ReLU{}, NewLinear(rng, 24, 3), Softmax{})
	if _, err := Train(m, x, labels, TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.1, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return m, x, labels
}

// TestQuantize8PreservesAccuracy bounds what 8-bit symmetric quantization
// costs in classification accuracy on a well-fit model.
func TestQuantize8PreservesAccuracy(t *testing.T) {
	m, x, labels := trainedClusterModel(t, 31)
	orig, err := Accuracy(m, x.Clone(), labels)
	if err != nil {
		t.Fatal(err)
	}
	q, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	qacc, err := Accuracy(q, x.Clone(), labels)
	if err != nil {
		t.Fatal(err)
	}
	if orig < 0.95 {
		t.Fatalf("source model underfit: %.3f", orig)
	}
	// 8-bit symmetric quantization costs at most a few points here.
	if qacc < orig-0.05 {
		t.Fatalf("quantized accuracy %.3f vs original %.3f", qacc, orig)
	}
}

func TestQuantizeResidentCloseToF32(t *testing.T) {
	m, x, _ := trainedClusterModel(t, 41)
	q, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range q.Layers {
		if _, isF32 := l.(*Linear); isF32 {
			t.Fatal("resident model still holds an f32 Linear layer")
		}
	}
	want := m.Forward(x.Clone())
	got := q.Forward(x.Clone())
	n := want.Dim(0)
	agree := 0
	for i := 0; i < n; i++ {
		for j := 0; j < want.Dim(1); j++ {
			d := float64(want.At(i, j) - got.At(i, j))
			if math.Abs(d) > 0.05 {
				t.Fatalf("row %d class %d: f32 %v vs quantized %v", i, j, want.At(i, j), got.At(i, j))
			}
		}
		if want.ArgMaxRow(i) == got.ArgMaxRow(i) {
			agree++
		}
	}
	if frac := float64(agree) / float64(n); frac < 0.99 {
		t.Fatalf("top-class agreement %.3f, want >= 0.99", frac)
	}
}

// TestQuantResidentBatchIndependence is the property the serving layer
// leans on: per-row activation scales make every output row a function of
// that row alone, so splitting or compacting a batch cannot change bits.
func TestQuantResidentBatchIndependence(t *testing.T) {
	m, x, _ := trainedClusterModel(t, 42)
	q, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	batch := x.SliceRows(0, 16)
	whole := q.Forward(batch.Clone())
	for i := 0; i < 16; i++ {
		one := q.Forward(batch.SliceRows(i, i+1).Clone())
		for j := 0; j < whole.Dim(1); j++ {
			if math.Float32bits(one.At(0, j)) != math.Float32bits(whole.At(i, j)) {
				t.Fatalf("row %d: batched %x vs solo %x", i, math.Float32bits(whole.At(i, j)), math.Float32bits(one.At(0, j)))
			}
		}
	}
}

func TestQuantizeResidentCNN(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := CacheCNN(rng, 10)
	q, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 10, 10, 1)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	want := m.Forward(x.Clone())
	got := q.Forward(x.Clone())
	if got.Dim(0) != want.Dim(0) || got.Dim(1) != want.Dim(1) {
		t.Fatalf("shape %v vs %v", got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		if d := math.Abs(float64(want.Data()[i] - got.Data()[i])); d > 0.05 {
			t.Fatalf("output %d: f32 %v vs quantized %v", i, want.Data()[i], got.Data()[i])
		}
	}
}

func TestQuantizeResidentShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := FraudFC(rng, 256)
	q, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	// The int16 pair panels cost 2 bytes per weight, so the wide layer's
	// resident image is half of f32 (the narrow head stays f32).
	if q.ParamBytes() >= m.ParamBytes() {
		t.Fatalf("resident %d bytes vs f32 %d, want smaller", q.ParamBytes(), m.ParamBytes())
	}
}

// twinGolden pins each zoo model's int8 twin: its ParamBytes and the
// SHA-256 of its forward output's float32 bits (little-endian) for a
// seeded input. The values were taken from the twin built by a round trip
// through an int8 model file, which stored the float32 scales, the int8
// payload and the biases exactly; building the twin straight from the f32
// tensors must reproduce every one.
var twinGolden = []struct {
	name       string
	paramBytes int64
	sum        string
}{
	{"Fraud-FC-32", 2320, "bfdfa3b7ce0e134522293c32cd34ef234787a1c8740ab8bc3835c24e36f45275"},
	{"Fraud-FC-1024", 73744, "2bd266e0469289bab85c72e8d130902a040ebbfc5d93416a8c8b04542ec4c504"},
	{"Encoder-FC", 5216256, "664de1190dfd5edfb5cfbc664b30cb6cab275efb9dbeaa1a83ded635dc5980f7"},
	{"DeepBench-CONV1", 8448, "f318ae6b5e72ed6d7f2317ee1b5b577ec0ef39223f4f9bd2b27682a1ce55d844"},
	{"LandCover", 480, "e2d3db265b34b7250eb948d873213d67772e7321ecbb39d5f10e3cb2836d7be9"},
	{"Bosch-FC", 499728, "b5530051b0e4d6ba6e882e87ed71ce5a78791e065234b7d519224e2af8b9d74b"},
	{"Cache-CNN", 142992, "02277a9450319d088b63a1126706978d0a4e0e9fae79a67e7365ed67e12e01ab"},
	{"Cache-FFNN", 4946768, "8583fbb46103b658c9cc38198400a825bf2ee59d73188e523607219685c1d8b5"},
	{"Amazon-14k-FC", 2457824, "f6d2ad795bc58986a565b628c815db0a44189ea3f8dc8eef8a122c750939b3d5"},
}

func TestQuantizeResidentGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cases := []struct {
		model *Model
		batch int
	}{
		{FraudFC(rng, 32), 5},
		{FraudFC(rng, 1024), 9},
		{EncoderFC(rng), 6},
		{DeepBenchConv1(rng), 1},
		{LandCover(rng, 50), 2},
		{BoschFC(rng, 968), 7},
		{CacheCNN(rng, 12), 5},
		{CacheFFNN(rng, 784), 6},
		{Amazon14kFC(rng, 512), 5},
	}
	for i, c := range cases {
		g := twinGolden[i]
		twin, err := QuantizeResident(c.model)
		if err != nil {
			t.Fatal(err)
		}
		x := randInput(rng, append([]int{c.batch}, c.model.InShape[1:]...))
		h := sha256.New()
		for _, v := range twin.Forward(x).Data() {
			b := math.Float32bits(v)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
		if twin.Name() != g.name || twin.ParamBytes() != g.paramBytes {
			t.Fatalf("case %d: twin %s with %d param bytes, want %s with %d", i, twin.Name(), twin.ParamBytes(), g.name, g.paramBytes)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != g.sum {
			t.Errorf("%s: twin output sha256 %s, want %s", g.name, sum, g.sum)
		}
	}
}

// Every quantized weight sits on its channel's grid (a whole multiple of
// max|w|/127, within half a step of the f32 weight), and the bias is the
// f32 model's own tensor. A narrow layer keeps the dequantized weights in
// wf, so they can be read back.
func TestQuantizeResidentWeightsOnGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	lin := NewLinear(rng, 8, 4)
	q, err := QuantizeResident(MustModel("g", []int{1, 8}, lin))
	if err != nil {
		t.Fatal(err)
	}
	ql := q.Layers[0].(*QuantLinear)
	if ql.gemm.wf == nil {
		t.Fatal("a 4-wide layer must keep dequantized f32 weights")
	}
	for c := 0; c < 4; c++ {
		var maxAbs float64
		for p := 0; p < 8; p++ {
			maxAbs = math.Max(maxAbs, math.Abs(float64(lin.W.At(c, p))))
		}
		scale := float64(float32(maxAbs) / 127)
		for p := 0; p < 8; p++ {
			v := float64(ql.gemm.wf.At(c, p))
			steps := v / scale
			if math.Abs(steps-math.Round(steps)) > 1e-4 {
				t.Fatalf("weight (%d,%d) = %v is not on the %v grid", c, p, v, scale)
			}
			if d := math.Abs(v - float64(lin.W.At(c, p))); d > scale/2+1e-7 {
				t.Fatalf("weight (%d,%d) = %v is %v from its f32 value, more than half a step", c, p, v, d)
			}
		}
	}
	if ql.B != lin.B {
		t.Fatal("the twin's bias must be the f32 model's tensor")
	}
}

// All-zero weights stay zero, on the narrow (f32 copy) path and on the
// int8 path alike.
func TestQuantizeZeroWeights(t *testing.T) {
	for _, out := range []int{2, 16} {
		m := MustModel("z", []int{1, 4}, &Linear{W: tensor.New(out, 4)})
		q, err := QuantizeResident(m)
		if err != nil {
			t.Fatal(err)
		}
		x := randInput(rand.New(rand.NewSource(int64(out))), []int{3, 4})
		for i, v := range q.Forward(x).Data() {
			if v != 0 {
				t.Fatalf("%d outputs: element %d = %v, want 0", out, i, v)
			}
		}
	}
}

// A non-finite weight has no int8 image (NaN) or would scale its whole
// channel to zero (±Inf), so the twin would answer where the f32 model
// answers NaN: such a model has no twin.
func TestQuantizeResidentRejectsNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		rng := rand.New(rand.NewSource(47))
		m := FraudFC(rng, 32)
		m.Layers[0].(*Linear).W.Set(bad, 3, 5)
		if _, err := QuantizeResident(m); err == nil {
			t.Fatalf("Linear weight %v: QuantizeResident must fail", bad)
		}
		c := CacheCNN(rng, 8)
		c.Layers[2].(*Conv2D).K.Data()[7] = bad
		if _, err := QuantizeResident(c); err == nil {
			t.Fatalf("Conv2D weight %v: QuantizeResident must fail", bad)
		}
	}
}
