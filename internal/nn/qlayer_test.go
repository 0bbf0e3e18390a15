package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"tensorbase/internal/tensor"
)

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
	// resident image is half of f32 (the narrow head stays f32) — smaller
	// than full precision, though above the 1/4 of the raw int8 payload
	// the TBQ1 file stores (TestSaveQuantizedIsSmaller covers that ratio).
	if q.ParamBytes() >= m.ParamBytes() {
		t.Fatalf("resident %d bytes vs f32 %d, want smaller", q.ParamBytes(), m.ParamBytes())
	}
}

func TestReadQuantTensorTruncatedPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	m := FraudFC(rng, 32)
	var buf bytes.Buffer
	if err := SaveQuantized(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := LoadQuantized(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
		if _, err := LoadQuantizedResident(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("resident truncation at %d must fail", cut)
		}
	}
}

// mustSaveQuantized builds a seed TBQ1 image (fuzz setup).
func mustSaveQuantized(m *Model) []byte {
	var buf bytes.Buffer
	if err := SaveQuantized(&buf, m); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLoadQuantized drives both TBQ1 loaders with arbitrary bytes: they
// must never panic or allocate unboundedly, and anything LoadQuantized
// accepts must also load resident with the same layer structure.
func FuzzLoadQuantized(f *testing.F) {
	rng := rand.New(rand.NewSource(46))
	seed := mustSaveQuantized(FraudFC(rng, 16))
	f.Add([]byte(nil))
	f.Add([]byte("TBQ1"))
	f.Add(seed)
	f.Add(seed[:len(seed)-7])
	f.Add(mustSaveQuantized(CacheCNN(rng, 6)))
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadQuantized(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		q, err := LoadQuantizedResident(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted by LoadQuantized but not resident: %v", err)
		}
		if len(q.Layers) != len(m.Layers) {
			t.Fatalf("resident has %d layers, dequantized %d", len(q.Layers), len(m.Layers))
		}
	})
}
