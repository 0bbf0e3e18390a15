package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tensorbase/internal/tensor"
	"tensorbase/internal/testutil"
)

// layerByLayer runs every layer on its own, as core's executor and
// training do: no Linear+ReLU fusion.
func layerByLayer(m *Model, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

func randInput(rng *rand.Rand, shape []int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	return x
}

// The fused forward pass must return the bits of the layer-by-layer one,
// for every zoo model and its int8-resident twin, on batches whose row
// counts leave 4-row tiles with leftover rows.
func TestFusedForwardMatchesLayerByLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, c := range []struct {
		model *Model
		batch int
	}{
		{FraudFC(rng, 1024), 258},
		{FraudFC(rng, 32), 5},
		{EncoderFC(rng), 6},
		{Amazon14kFC(rng, 1024), 17},
		{DeepBenchConv1(rng), 1},
		{LandCover(rng, 100), 2},
		{BoschFC(rng, 968), 33},
		{CacheCNN(rng, 12), 9},
		{CacheFFNN(rng, 784), 13},
	} {
		twin, err := QuantizeResident(c.model)
		if err != nil {
			t.Fatal(err)
		}
		shape := append([]int{c.batch}, c.model.InShape[1:]...)
		x := randInput(rng, shape)
		for _, m := range []*Model{c.model, twin} {
			got := m.Forward(x.Clone())
			want := layerByLayer(m, x.Clone())
			what := fmt.Sprintf("%s (%d layers, batch %d)", m.Name(), len(m.Layers), c.batch)
			if !sameShape(got.Shape(), want.Shape()) {
				t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
			}
			for i, g := range got.Data() {
				w := want.Data()[i]
				if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
					t.Fatalf("%s: element %d = %v, want %v", what, i, g, w)
				}
			}
		}
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The vector kernels' layer attribution as an exact count: a 256-row
// Fraud-FC-1024 batch runs its hidden layer on the AVX2 tiles and its
// 2-class head on the SSE tail dots; one row runs neither; the int8 twin
// runs its hidden layer on the int8 tile and its (dequantized f32) head on
// the tail dots.
func TestVectorCallsPerForward(t *testing.T) {
	if has, known := testutil.HostAVX2(); !known || !has {
		t.Skip("host has no AVX2 tiles")
	}
	rng := rand.New(rand.NewSource(46))
	m := FraudFC(rng, 1024)
	twin, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		model *Model
		rows  int
		want  uint64
	}{
		{m, 256, 2},
		{m, 1, 0},
		{twin, 256, 2},
		{LandCover(rng, 20), 1, 1}, // one image: 15 625 patch rows through Dense
	} {
		x := randInput(rng, append([]int{c.rows}, c.model.InShape[1:]...))
		before := tensor.Kernels().VectorCalls
		c.model.Forward(x)
		if got := tensor.Kernels().VectorCalls - before; got != c.want {
			t.Fatalf("%s on %d rows: vector calls +%d, want +%d", c.model.Name(), c.rows, got, c.want)
		}
	}
}
