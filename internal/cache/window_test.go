package cache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tensorbase/internal/ann"
	"tensorbase/internal/data"
)

// TestWindowSkipsSearchesOnDisjointProbes is the predict_cached shape as an
// exact count: 1024 Fraud rows cached at threshold 1e-9, then the other 1024
// rows probed. None can hit, and the first-coordinate window proves it for
// all but a handful, so the HNSW search runs for only those few (without
// the window it runs for every one of the 1024 misses).
func TestWindowSkipsSearchesOnDisjointProbes(t *testing.T) {
	const n, half = 2048, 1024
	d := data.Fraud(1, n)
	rc := newTestCache(t, d.X.Dim(1), 1e-9)
	rc.SetMaxEntries(half)
	for i := 0; i < half; i++ {
		if err := rc.Insert(d.X.Row(i), []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := half; i < n; i++ {
		if _, _, err := rc.Lookup(d.X.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	c := rc.Counters()
	if c.Misses != half || c.Hits != 0 {
		t.Fatalf("hits=%d misses=%d, want 0 and %d", c.Hits, c.Misses, half)
	}
	if c.Searches > 32 {
		t.Fatalf("%d ANN searches for %d provable misses, want <= 32", c.Searches, half)
	}
}

// unfilteredLocked is the lookup without the first-coordinate window: the
// exact map, exact-only mode, then index.Search(q, 1) with <= maxDist
// applied directly. The caller holds c.mu for reading.
func unfilteredLocked(c *ResultCache, q []float32) ([]float32, bool, error) {
	if id, hit := c.exact[featKey(q)]; hit {
		return c.preds[id], true, nil
	}
	if c.maxDist == 0 {
		return nil, false, nil
	}
	res, err := c.index.Search(q, 1)
	if err != nil || len(res) == 0 || !(res[0].Dist <= c.maxDist) {
		return nil, false, err
	}
	p, ok := c.preds[res[0].ID]
	return p, ok, nil
}

// TestWindowBoundaryIsSquaredL2s pins the window's edge to the exact float64
// distance Search compares: with the threshold set to an entry's computed
// distance the probe must hit, and one ulp below it must miss. Coordinates
// of mixed magnitudes make float32 and float64 arithmetic round apart.
func TestWindowBoundaryIsSquaredL2s(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	draw := func() float32 {
		return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
	}
	for i := 0; i < 300; i++ {
		e := []float32{draw(), draw()}
		q := []float32{draw(), e[1]}
		if i%2 == 1 {
			q[1] = draw()
		}
		dist := ann.SquaredL2(q, e)
		for _, tc := range []struct {
			thresh float64
			hit    bool
		}{{dist, true}, {math.Nextafter(dist, 0), false}} {
			c := newTestCache(t, 2, tc.thresh)
			if err := c.Insert(e, []float32{1}); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := c.Lookup(q); err != nil || ok != tc.hit {
				t.Fatalf("e=%v q=%v thresh=%g: hit=%v err=%v, want hit=%v", e, q, tc.thresh, ok, err, tc.hit)
			}
		}
	}
}

// sameAnswer reports whether two lookups agree on hit or miss and, on a
// hit, returned the very same cached prediction slice.
func sameAnswer(p []float32, ok bool, q []float32, qok bool) bool {
	if ok != qok {
		return false
	}
	return !ok || (len(p) > 0 && len(q) > 0 && &p[0] == &q[0])
}

// windowThresholds spans exact-only mode, thresholds below and above a
// float32 ulp at the pool's magnitudes, and one as wide as the Sec. 7.2.2
// experiment's.
var windowThresholds = []float64{0, 1e-12, 1e-9, 1e-3, 50, math.Inf(1)}

var (
	nan    = float32(math.NaN())
	posInf = float32(math.Inf(1))
	negInf = float32(math.Inf(-1))
	negZ   = float32(math.Copysign(0, -1))
)

// windowVec draws a vector from a small value pool, so many entries share
// features[0], with occasional ±0, ±Inf and NaN.
func windowVec(rng *rand.Rand, dim int) []float32 {
	pool := []float32{0, 1, 1000, -1000, 1e-3, 3.5}
	v := make([]float32, dim)
	for j := range v {
		switch r := rng.Intn(40); {
		case r == 0:
			v[j] = nan
		case r == 1:
			v[j] = posInf
		case r == 2:
			v[j] = negInf
		case r == 3:
			v[j] = negZ
		default:
			v[j] = pool[rng.Intn(len(pool))]
		}
	}
	return v
}

// windowQuery derives a probe from an admitted vector (or draws a fresh
// one): an exact repeat, one ulp away in coordinate 0 or in another
// coordinate only, zeros with their sign flipped, a small perturbation, or
// a NaN or infinite coordinate.
func windowQuery(rng *rand.Rand, dim int, seen [][]float32) []float32 {
	if len(seen) == 0 || rng.Intn(8) == 0 {
		return windowVec(rng, dim)
	}
	q := append([]float32(nil), seen[rng.Intn(len(seen))]...)
	j := 1 + rng.Intn(dim-1)
	dir := float32(math.Inf(1 - 2*rng.Intn(2)))
	switch rng.Intn(7) {
	case 0: // exact repeat
	case 1:
		q[0] = math.Nextafter32(q[0], dir)
	case 2:
		q[j] = math.Nextafter32(q[j], dir)
	case 3:
		for i, x := range q {
			if x == 0 {
				q[i] = -x // +0 ↔ -0
			}
		}
	case 4:
		for i := range q {
			q[i] += float32(rng.NormFloat64() * 1e-4)
		}
	case 5:
		q[0] = []float32{nan, posInf, negInf}[rng.Intn(3)]
	default:
		q[j] = []float32{nan, posInf, negInf}[rng.Intn(3)]
	}
	return q
}

func windowCaches(t *testing.T, dim int, thresh float64) map[string]*ResultCache {
	t.Helper()
	brute, err := New(ann.NewBrute(dim), dim, thresh)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ResultCache{"hnsw": newTestCache(t, dim, thresh), "brute": brute}
}

// TestWindowMatchesUnfilteredSearch checks that the window never changes an
// answer: every Lookup and ProbeFlight, interleaved with inserts, returns
// exactly what the unfiltered search path returns on the same state.
func TestWindowMatchesUnfilteredSearch(t *testing.T) {
	const dim, steps = 4, 900
	var skipped, approxHits int64
	for ti, thresh := range windowThresholds {
		for name, c := range windowCaches(t, dim, thresh) {
			rng := rand.New(rand.NewSource(int64(100*ti + len(name))))
			var seen [][]float32
			for step := 0; step < steps; step++ {
				if step%3 == 0 {
					v := windowVec(rng, dim)
					if len(seen) > 0 && rng.Intn(2) == 0 {
						v = windowQuery(rng, dim, seen) // near-duplicate entries
					}
					if err := c.Insert(v, []float32{float32(step)}); err != nil {
						t.Fatal(err)
					}
					seen = append(seen, v)
					continue
				}
				q := windowQuery(rng, dim, seen)
				c.mu.RLock()
				want, wantOK, err := unfilteredLocked(c, q)
				_, exact := c.exact[featKey(q)]
				c.mu.RUnlock()
				if err != nil {
					t.Fatal(err)
				}
				before := c.Counters().Searches
				got, ok, err := c.Lookup(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(got, ok, want, wantOK) {
					t.Fatalf("%s thresh=%g q=%v: Lookup (%v, %v), unfiltered (%v, %v)", name, thresh, q, got, ok, want, wantOK)
				}
				if !ok && thresh > 0 && c.Counters().Searches == before {
					skipped++
				}
				if ok && !exact {
					approxHits++
				}
				pred, pok, fl, err := c.ProbeFlight(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(pred, pok, want, wantOK) {
					t.Fatalf("%s thresh=%g q=%v: ProbeFlight (%v, %v), unfiltered (%v, %v)", name, thresh, q, pred, pok, want, wantOK)
				}
				if fl != nil {
					fl.Cancel(errors.New("probe only"))
				}
			}
		}
	}
	// The comparison is only meaningful if both branches were exercised.
	if skipped == 0 || approxHits == 0 {
		t.Fatalf("vacuous run: %d searches skipped, %d non-exact hits", skipped, approxHits)
	}
}

// TestWindowConcurrentInsertsAndLookups runs the window against the
// unfiltered path while inserts grow the cache. Each comparison holds the
// read lock, so both paths see one state; under -race this also checks
// that first is only written under the write lock.
func TestWindowConcurrentInsertsAndLookups(t *testing.T) {
	const dim, readers, iters = 4, 4, 300
	for _, thresh := range []float64{1e-9, 1e-3} {
		c := newTestCache(t, dim, thresh)
		var wg sync.WaitGroup
		errs := make(chan error, readers+1)
		var smu sync.Mutex
		var seen [][]float32
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < iters; i++ {
				v := windowVec(rng, dim)
				if err := c.Insert(v, []float32{float32(i)}); err != nil {
					errs <- err
					return
				}
				smu.Lock()
				seen = append(seen, v)
				smu.Unlock()
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(10 + r)))
				for i := 0; i < iters; i++ {
					smu.Lock()
					q := windowQuery(rng, dim, seen)
					smu.Unlock()
					key := featKey(q)
					c.mu.RLock()
					got, ok, gerr := c.probeLocked(q, key)
					want, wantOK, werr := unfilteredLocked(c, q)
					c.mu.RUnlock()
					if gerr != nil || werr != nil {
						errs <- fmt.Errorf("probe: %v / %v", gerr, werr)
						return
					}
					if !sameAnswer(got, ok, want, wantOK) {
						errs <- fmt.Errorf("thresh=%g q=%v: window (%v, %v), unfiltered (%v, %v)", thresh, q, got, ok, want, wantOK)
						return
					}
					if _, _, err := c.Lookup(q); err != nil {
						errs <- err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
