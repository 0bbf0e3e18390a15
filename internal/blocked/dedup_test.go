package blocked

import (
	"math/rand"
	"testing"

	"tensorbase/internal/tensor"
)

func TestDedupExactDuplicatesShare(t *testing.T) {
	pool := newPool(t, 32)
	s, err := NewDedupStore(pool, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	w := randMat(rng, 48, 48) // 9 blocks
	m1, err := s.Store(w)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Store(w.Clone()) // same content, different tensor
	if err != nil {
		t.Fatal(err)
	}
	stored, shared, saved := s.Stats()
	if stored != 18 || shared != 9 {
		t.Fatalf("stats: stored=%d shared=%d", stored, shared)
	}
	if saved != w.Bytes() {
		t.Fatalf("saved %d bytes, want %d", saved, w.Bytes())
	}
	// Both views must still assemble correctly.
	a1, err := m1.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !a1.Equal(w) || !a2.Equal(w) {
		t.Fatal("deduped matrices assemble incorrectly")
	}
}

func TestDedupEpsilonSharingBoundsError(t *testing.T) {
	pool := newPool(t, 32)
	const eps = 0.01
	s, err := NewDedupStore(pool, 16, eps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	w := randMat(rng, 32, 32)
	if _, err := s.Store(w); err != nil {
		t.Fatal(err)
	}
	// Perturb within a small fraction of eps: blocks should mostly share
	// (grid hashing is best-effort, so require > 0 rather than all).
	wp := w.Clone()
	for i := range wp.Data() {
		wp.Data()[i] += (rng.Float32()*2 - 1) * eps / 100
	}
	m2, err := s.Store(wp)
	if err != nil {
		t.Fatal(err)
	}
	_, shared, _ := s.Stats()
	if shared == 0 {
		t.Fatal("no blocks shared despite sub-epsilon perturbation")
	}
	// The error bound must hold: every element of the deduped view is
	// within eps of the stored tensor it represents.
	got, err := m2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data() {
		d := v - wp.Data()[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			t.Fatalf("element %d off by %v > eps %v", i, d, eps)
		}
	}
}

func TestDedupDistinctBlocksDoNotShare(t *testing.T) {
	pool := newPool(t, 32)
	s, err := NewDedupStore(pool, 16, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	if _, err := s.Store(randMat(rng, 32, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Store(randMat(rng, 32, 32)); err != nil {
		t.Fatal(err)
	}
	_, shared, _ := s.Stats()
	if shared != 0 {
		t.Fatalf("independent random matrices shared %d blocks", shared)
	}
}

func TestDedupValidation(t *testing.T) {
	pool := newPool(t, 8)
	if _, err := NewDedupStore(pool, 0, 0); err == nil {
		t.Fatal("block size 0 must error")
	}
	if _, err := NewDedupStore(pool, 16, -1); err == nil {
		t.Fatal("negative eps must error")
	}
	s, err := NewDedupStore(pool, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Store(tensor.New(2, 2, 2)); err == nil {
		t.Fatal("3-D tensor must error")
	}
}

func TestDedupMatricesMultiplyCorrectly(t *testing.T) {
	// The headline use: many models sharing near-duplicate weights still
	// compute correctly through the relation-centric path.
	pool := newPool(t, 64)
	s, err := NewDedupStore(pool, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	w := randMat(rng, 24, 32) // (out,in)
	wm, err := s.Store(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Store(w.Clone()); err != nil { // a duplicate "model"
		t.Fatal(err)
	}
	x := randMat(rng, 10, 32)
	xm, err := Store(pool, x, 16)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MultiplyStreaming(pool, xm, wm, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(tensor.Dense(x, w, nil, false), 1e-3) {
		t.Fatal("multiply through deduped weights is wrong")
	}
}
