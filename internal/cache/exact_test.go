package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The exact cache is a ResultCache at distance 0 (the engine's
// ResultCacheDistance: 0): a lookup hits only on bit-identical features.
func newExact(t testing.TB, dim int) *ResultCache {
	t.Helper()
	c, err := NewHNSW(dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func lookup(t testing.TB, c *ResultCache, features []float32) ([]float32, bool) {
	t.Helper()
	pred, ok, err := c.Lookup(features)
	if err != nil {
		t.Fatal(err)
	}
	return pred, ok
}

func insert(t testing.TB, c *ResultCache, features, prediction []float32) {
	t.Helper()
	if err := c.Insert(features, prediction); err != nil {
		t.Fatal(err)
	}
}

func TestExactCacheHitRequiresIdenticalFeatures(t *testing.T) {
	c := newExact(t, 3)
	insert(t, c, []float32{1, 2, 3}, []float32{0.9})
	if pred, ok := lookup(t, c, []float32{1, 2, 3}); !ok || pred[0] != 0.9 {
		t.Fatalf("identical lookup: ok=%v pred=%v", ok, pred)
	}
	if _, ok := lookup(t, c, []float32{1, 2, 3.001}); ok {
		t.Fatal("near-identical features must miss (exact semantics)")
	}
	if _, _, err := c.Lookup([]float32{1, 2}); err == nil {
		t.Fatal("shorter features must be refused")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
	if n := c.Counters().Searches; n != 0 {
		t.Fatalf("exact-only lookups ran %d ANN searches, want 0", n)
	}
}

// A repeat insert of the same features answers later lookups with the
// newer prediction.
func TestExactCacheOverwrite(t *testing.T) {
	c := newExact(t, 1)
	insert(t, c, []float32{5}, []float32{0.1})
	insert(t, c, []float32{5}, []float32{0.2})
	pred, ok := lookup(t, c, []float32{5})
	if !ok || pred[0] != 0.2 {
		t.Fatalf("pred = %v", pred)
	}
}

func TestExactCacheReturnedSliceIsStable(t *testing.T) {
	c := newExact(t, 2)
	feat := []float32{1, 2}
	pred := []float32{0.5}
	insert(t, c, feat, pred)
	feat[0] = 9 // caller mutates its slices afterwards
	pred[0] = 9
	got, ok := lookup(t, c, []float32{1, 2})
	if !ok || got[0] != 0.5 {
		t.Fatalf("cache aliased caller slices: ok=%v got=%v", ok, got)
	}
}

// Property: everything inserted is found exactly; nothing not inserted is
// found.
func TestExactCacheProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newExact(t, 4)
		n := 1 + rng.Intn(100)
		feats := make([][]float32, n)
		for i := range feats {
			v := make([]float32, 4)
			for j := range v {
				v[j] = float32(rng.Intn(50)) // duplicates likely
			}
			feats[i] = v
			insert(t, c, v, []float32{float32(i)})
		}
		// Every inserted key must hit (possibly with a later overwrite's
		// value — find the last insert of an equal key).
		for i, f := range feats {
			pred, ok := lookup(t, c, f)
			if !ok {
				return false
			}
			lastIdx := i
			for j := i + 1; j < n; j++ {
				if slices.Equal(feats[j], f) {
					lastIdx = j
				}
			}
			if pred[0] != float32(lastIdx) {
				return false
			}
		}
		// A key guaranteed absent must miss.
		if _, ok := lookup(t, c, []float32{-1, -1, -1, -1}); ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
