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
// rows probed. None can hit. The first-coordinate window is empty for all
// but a handful, and those few windows hold a few entries each, so they are
// scanned exactly: no lookup searches, and the HNSW is never built.
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
	if c.Misses != half || c.Hits != 0 || c.Entries != half {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0, %d and %d", c.Hits, c.Misses, c.Entries, half, half)
	}
	if c.Searches != 0 || rc.index.Len() != 0 {
		t.Fatalf("%d ANN searches, %d graph nodes for %d provable misses, want 0 and 0", c.Searches, rc.index.Len(), half)
	}
}

// TestExactOnlyBuildsNoGraph: at distance 0 the whole cache is its exact
// map, so no number of inserts or lookups adds a node to the graph.
func TestExactOnlyBuildsNoGraph(t *testing.T) {
	d := data.Fraud(2, 512)
	rc := newTestCache(t, d.X.Dim(1), 0)
	for i := 0; i < d.X.Dim(0); i++ {
		if err := rc.Insert(d.X.Row(i), []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
		q := append([]float32(nil), d.X.Row(i/2)...)
		q[i%len(q)] += 1e-3
		if _, _, err := rc.Lookup(q); err != nil {
			t.Fatal(err)
		}
	}
	if n, s := rc.index.Len(), rc.Counters().Searches; n != 0 || s != 0 {
		t.Fatalf("exact-only cache: %d graph nodes, %d searches, want 0 and 0", n, s)
	}
}

// TestHitAllocatesNothing: an exact hit builds its key on the stack and
// indexes the map with string(key), which does not allocate.
func TestHitAllocatesNothing(t *testing.T) {
	d := data.Fraud(1, 64)
	rc := newTestCache(t, d.X.Dim(1), 1e-9)
	for i := 0; i < d.X.Dim(0); i++ {
		if err := rc.Insert(d.X.Row(i), []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	q := d.X.Row(7)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok, err := rc.Lookup(q); !ok || err != nil {
			t.Fatalf("Lookup: ok=%v err=%v", ok, err)
		}
	}); n != 0 {
		t.Errorf("exact-hit Lookup: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok, fl, err := rc.ProbeFlight(q); !ok || fl != nil || err != nil {
			t.Fatalf("ProbeFlight: ok=%v fl=%v err=%v", ok, fl, err)
		}
	}); n != 0 {
		t.Errorf("exact-hit ProbeFlight: %v allocations, want 0", n)
	}
}

// nearestWithin is the narrow-window oracle: the entry ann.Brute ranks
// nearest to q among those within maxDist, the lowest id on a tie (Brute's
// sort is not stable, and NaN distances upset its order, so the minimum is
// taken here). The caller holds c.mu.
func nearestWithin(t testing.TB, c *ResultCache, q []float32) ([]float32, bool) {
	t.Helper()
	b := ann.NewBrute(c.dim)
	for id, f := range c.feats {
		if err := b.Add(int64(id), f); err != nil {
			t.Fatal(err)
		}
	}
	res, err := b.Search(q, len(c.feats)+1)
	if err != nil {
		t.Fatal(err)
	}
	best := ann.Result{ID: -1}
	for _, r := range res {
		if r.Dist <= c.maxDist && (best.ID < 0 || r.Dist < best.Dist || r.Dist == best.Dist && r.ID < best.ID) {
			best = r
		}
	}
	if best.ID < 0 {
		return nil, false
	}
	return c.preds[best.ID], true
}

// oracleLocked is what a lookup must answer, decided without the cache's
// own lookup code: the exact map, exact-only mode, then, by the width of
// the first-coordinate window, the exact nearest entry (nearestWithin) or
// the answer of eager, an index built by adding every entry as it was
// inserted. The caller holds c.mu.
func oracleLocked(t testing.TB, c *ResultCache, eager ann.Index, q []float32) ([]float32, bool) {
	t.Helper()
	if id, hit := c.exact[string(appendKey(nil, q))]; hit {
		return c.preds[id], true
	}
	if c.maxDist == 0 {
		return nil, false
	}
	if lo, hi := c.window(q[0]); hi-lo <= scanMax {
		return nearestWithin(t, c, q)
	}
	res, err := eager.Search(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || !(res[0].Dist <= c.maxDist) {
		return nil, false
	}
	return c.preds[res[0].ID], true
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

// windowCase is a cache and its eager twin: an index of the same kind that
// gets every entry at insert time.
type windowCase struct {
	c     *ResultCache
	eager ann.Index
}

func windowCaches(t *testing.T, dim int, thresh float64) map[string]windowCase {
	t.Helper()
	brute, err := New(ann.NewBrute(dim), dim, thresh)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]windowCase{
		"hnsw":  {newTestCache(t, dim, thresh), ann.NewHNSW(dim, ann.HNSWConfig{Seed: 1})},
		"brute": {brute, ann.NewBrute(dim)},
	}
}

// TestWindowMatchesUnfilteredSearch checks every Lookup and ProbeFlight,
// interleaved with inserts, against an unfiltered oracle on the same state
// (oracleLocked): a narrow window must return the exact nearest entry within
// the threshold, a wide one the answer of an eagerly built index.
func TestWindowMatchesUnfilteredSearch(t *testing.T) {
	const dim, steps = 4, 900
	var skipped, scanHits, searchHits int64
	for ti, thresh := range windowThresholds {
		for name, wc := range windowCaches(t, dim, thresh) {
			c := wc.c
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
					if err := wc.eager.Add(int64(len(seen)), v); err != nil {
						t.Fatal(err)
					}
					seen = append(seen, v)
					continue
				}
				q := windowQuery(rng, dim, seen)
				c.mu.RLock()
				want, wantOK := oracleLocked(t, c, wc.eager, q)
				_, exact := c.exact[string(appendKey(nil, q))]
				lo, hi := c.window(q[0])
				c.mu.RUnlock()
				before := c.Counters().Searches
				got, ok, err := c.Lookup(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(got, ok, want, wantOK) {
					t.Fatalf("%s thresh=%g q=%v window=%d: Lookup (%v, %v), oracle (%v, %v)", name, thresh, q, hi-lo, got, ok, want, wantOK)
				}
				searched := c.Counters().Searches > before
				if !ok && thresh > 0 && !searched {
					skipped++
				}
				if ok && !exact && searched {
					searchHits++
				} else if ok && !exact {
					scanHits++
				}
				pred, pok, fl, err := c.ProbeFlight(q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswer(pred, pok, want, wantOK) {
					t.Fatalf("%s thresh=%g q=%v: ProbeFlight (%v, %v), oracle (%v, %v)", name, thresh, q, pred, pok, want, wantOK)
				}
				if fl != nil {
					fl.Cancel(errors.New("probe only"))
				}
			}
		}
	}
	// The comparison is only meaningful if every branch was exercised.
	if skipped == 0 || scanHits == 0 || searchHits == 0 {
		t.Fatalf("vacuous run: %d searches skipped, %d scanned hits, %d searched hits", skipped, scanHits, searchHits)
	}
}

// TestWindowConcurrentInsertsAndLookups runs lookups while a writer inserts.
// Readers compare narrow windows against the exact oracle under the read
// lock, so both see one state, and at +Inf every window is wide once the
// cache outgrows scanMax, so readers race each other and the writer to
// catch the graph up. Under -race this checks that first, the entries and
// the graph are only written under the write lock; at the end the graph
// must answer every search as an eager build of the same entries does.
func TestWindowConcurrentInsertsAndLookups(t *testing.T) {
	const dim, readers, iters = 4, 4, 300
	for _, thresh := range []float64{1e-9, 1e-3, math.Inf(1)} {
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
					var bad error
					c.mu.RLock()
					if lo, hi := c.window(q[0]); hi-lo <= scanMax {
						got, ok, gerr := c.probeLocked(q, appendKey(nil, q), false)
						want, wantOK := oracleLocked(t, c, nil, q) // narrow: no eager index needed
						if gerr != nil || !sameAnswer(got, ok, want, wantOK) {
							bad = fmt.Errorf("thresh=%g q=%v: window (%v, %v, %v), oracle (%v, %v)", thresh, q, got, ok, gerr, want, wantOK)
						}
					}
					c.mu.RUnlock()
					if bad != nil {
						errs <- bad
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
		if _, _, err := c.Lookup(make([]float32, dim)); err != nil {
			t.Fatal(err)
		}
		if thresh < math.Inf(1) {
			continue
		}
		if c.Counters().Searches == 0 || c.indexed != len(c.feats) {
			t.Fatalf("+Inf: %d searches, %d of %d entries indexed", c.Counters().Searches, c.indexed, len(c.feats))
		}
		eager := ann.NewHNSW(dim, ann.HNSWConfig{Seed: 1})
		for id, f := range c.feats {
			if err := eager.Add(int64(id), f); err != nil {
				t.Fatal(err)
			}
		}
		// Equal graphs answer every search alike (reflect.DeepEqual cannot
		// say so: the entries hold NaN).
		for _, f := range c.feats {
			got, gerr := c.index.Search(f, 8)
			want, werr := eager.Search(f, 8)
			if gerr != nil || werr != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("lazily caught-up graph answers %v (%v), an eager build %v (%v)", got, gerr, want, werr)
			}
		}
	}
}
