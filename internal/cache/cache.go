// Package cache implements the RDBMS-integrated inference-result cache of
// Sec. 5, validated in Sec. 7.2.2: feature vectors of previously answered
// inference requests are indexed in an approximate-nearest-neighbour
// structure (HNSW by default), and a new request whose features fall within
// a distance threshold of a cached entry reuses that entry's prediction
// instead of running the model. The package also provides the Monte-Carlo
// agreement estimator and the SLA-aware adaptive policy the paper proposes
// for deciding whether caching is acceptable for an application.
package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tensorbase/internal/ann"
	"tensorbase/internal/lifecycle"
	"tensorbase/internal/nn"
	"tensorbase/internal/tensor"
)

// ResultCache maps feature vectors to cached prediction vectors through an
// ANN index. It is safe for concurrent use: lookups run the ANN search under
// a read lock so they do not serialise behind each other, only inserts take
// the write lock, and duplicate in-flight misses can be collapsed with the
// single-flight protocol (ProbeFlight).
type ResultCache struct {
	mu         sync.RWMutex // guards index structure and preds map
	index      ann.Index
	dim        int
	maxDist    float64 // squared L2 admission threshold
	maxEntries int     // 0 = unbounded
	preds      map[int64][]float32
	exact      map[string]int64 // featKey → id: O(1) path for identical repeats
	// first holds every admitted entry's features[0], ascending (NaN
	// excluded): an exact window that rules out misses before the ANN
	// search (see mayHit).
	first  []float32
	nextID int64

	hits     atomic.Int64
	misses   atomic.Int64
	shared   atomic.Int64
	rejected atomic.Int64
	searches atomic.Int64

	fmu     sync.Mutex // guards flights, independent of mu
	flights map[string]*flight
}

// New returns a cache over index for dim-wide features. A lookup hits when
// the nearest cached entry is within maxSquaredDist.
func New(index ann.Index, dim int, maxSquaredDist float64) (*ResultCache, error) {
	if index == nil {
		return nil, fmt.Errorf("cache: nil index")
	}
	if dim < 1 {
		return nil, fmt.Errorf("cache: dimension %d < 1", dim)
	}
	if maxSquaredDist < 0 {
		return nil, fmt.Errorf("cache: negative distance threshold %g", maxSquaredDist)
	}
	return &ResultCache{
		index:   index,
		dim:     dim,
		maxDist: maxSquaredDist,
		preds:   make(map[int64][]float32),
		exact:   make(map[string]int64),
		flights: make(map[string]*flight),
	}, nil
}

// SetMaxEntries caps the number of cached entries; once the index holds n
// vectors further inserts are rejected (counted in Counters().Rejected).
// n <= 0 removes the cap.
func (c *ResultCache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	c.maxEntries = n
}

// NewHNSW returns a cache backed by a default-tuned HNSW index.
func NewHNSW(dim int, maxSquaredDist float64) (*ResultCache, error) {
	return New(ann.NewHNSW(dim, ann.HNSWConfig{Seed: 1}), dim, maxSquaredDist)
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.index.Len()
}

// Lookup returns the cached prediction for the nearest entry within the
// distance threshold, or ok=false. The returned slice must not be mutated.
// Concurrent lookups proceed in parallel (read lock): only inserts exclude
// them. An identical repeat of a cached feature vector is answered from an
// exact-match map in O(1); the ANN search only runs when some entry's first
// coordinate alone is within the threshold (mayHit).
func (c *ResultCache) Lookup(features []float32) (pred []float32, ok bool, err error) {
	if len(features) != c.dim {
		return nil, false, fmt.Errorf("cache: feature width %d, want %d", len(features), c.dim)
	}
	return c.lookupKeyed(features, featKey(features))
}

func (c *ResultCache) lookupKeyed(features []float32, key string) (pred []float32, ok bool, err error) {
	c.mu.RLock()
	pred, ok, err = c.probeLocked(features, key)
	c.mu.RUnlock()
	switch {
	case err != nil:
		return nil, false, err
	case ok:
		c.hits.Add(1)
	default:
		c.misses.Add(1)
	}
	return pred, ok, nil
}

// probeLocked is the lookup proper, without hit/miss accounting; the caller
// holds mu for reading.
func (c *ResultCache) probeLocked(features []float32, key string) ([]float32, bool, error) {
	if id, hit := c.exact[key]; hit {
		return c.preds[id], true, nil
	}
	if c.maxDist == 0 || !c.mayHit(features[0]) {
		// Exact-only mode: a zero-distance ANN hit implies bit-identical
		// features (modulo ±0), which the exact map already answered. An
		// empty first-coordinate window proves no entry is within maxDist.
		// Either way the beam search could only miss, so skip it.
		return nil, false, nil
	}
	c.searches.Add(1)
	res, err := c.index.Search(features, 1)
	if err == nil && len(res) > 0 && res[0].Dist <= c.maxDist {
		p, found := c.preds[res[0].ID]
		return p, found, nil
	}
	return nil, false, err
}

// mayHit reports whether some entry's first coordinate alone is within
// maxDist of q0; the caller holds mu. ann.SquaredL2 sums non-negative
// float64 terms, and rounded addition is monotone, so an entry's distance
// is never below its first term t0 = (q0-e0)²: when no entry has
// t0 <= maxDist, no entry can hit. t0 shrinks toward q0 from either side,
// so the entries with t0 <= maxDist are one contiguous run of first, and
// the predicate below is false before that run and true from it on. A NaN
// q0 is near nothing, and with a finite maxDist neither is an infinite one,
// as Search's NaN or infinite distances miss. An infinite maxDist is the one
// exception: t0 is then near everywhere except NaN at e0 == q0 = ±Inf, which
// splits the run, so the window only checks that an entry exists.
func (c *ResultCache) mayHit(q0 float32) bool {
	if math.IsInf(c.maxDist, 1) {
		return len(c.first) > 0
	}
	near := func(e0 float32) bool {
		d := float64(q0) - float64(e0)
		return d*d <= c.maxDist
	}
	i := sort.Search(len(c.first), func(i int) bool { return c.first[i] >= q0 || near(c.first[i]) })
	return i < len(c.first) && near(c.first[i])
}

// full reports whether the entry cap is reached; the caller holds mu.
func (c *ResultCache) full() bool {
	return c.maxEntries > 0 && c.index.Len() >= c.maxEntries
}

// Insert caches prediction under the given features. When the entry cap is
// reached the insert is silently rejected (admission control: HNSW does not
// support deletion, so the cache stops growing instead of evicting). Entries
// only grow, so a full cache rejects under the read lock without stalling
// concurrent lookups.
func (c *ResultCache) Insert(features, prediction []float32) error {
	if len(features) != c.dim {
		return fmt.Errorf("cache: feature width %d, want %d", len(features), c.dim)
	}
	c.mu.RLock()
	full := c.full()
	c.mu.RUnlock()
	if full {
		c.rejected.Add(1)
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.full() {
		c.rejected.Add(1)
		return nil
	}
	id := c.nextID
	c.nextID++
	if err := c.index.Add(id, features); err != nil {
		return err
	}
	c.preds[id] = append([]float32(nil), prediction...)
	c.exact[featKey(features)] = id
	if f0 := features[0]; !math.IsNaN(float64(f0)) { // NaN never hits and would break the order
		i := sort.Search(len(c.first), func(i int) bool { return c.first[i] >= f0 })
		c.first = append(c.first, 0)
		copy(c.first[i+1:], c.first[i:])
		c.first[i] = f0
	}
	return nil
}

// Stats returns cumulative hit and miss counts.
func (c *ResultCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Counters is a full snapshot of the cache's cumulative counters.
type Counters struct {
	Hits     int64 // lookups answered from the cache
	Misses   int64 // lookups that fell through to the model
	Shared   int64 // misses that reused another request's in-flight result
	Rejected int64 // inserts dropped by the max-entries cap
	Searches int64 // lookups that ran the ANN search
	Entries  int   // current cached entries
}

// Counters returns a snapshot of all cumulative counters.
func (c *ResultCache) Counters() Counters {
	return Counters{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Shared:   c.shared.Load(),
		Rejected: c.rejected.Load(),
		Searches: c.searches.Load(),
		Entries:  c.Len(),
	}
}

// flight is one in-progress model computation for a feature key.
type flight struct {
	done chan struct{}
	pred []float32
	err  error
}

// Flight is a single-flight handle for a cache miss. Exactly one prober of a
// given feature vector becomes the leader (Leader() true) and must settle
// the flight with Commit or Cancel; every other concurrent prober of the
// same features receives a follower handle whose Wait blocks until the
// leader settles.
//
// Deadlock rule for batched callers holding several handles: settle all
// owned leader flights before Waiting on any follower handle. Cyclic waits
// are impossible then, because no goroutine waits while another's result
// depends on it.
type Flight struct {
	c      *ResultCache
	key    string
	f      *flight
	leader bool
}

// featKey is the exact-match single-flight key: the raw bit pattern of the
// feature vector.
func featKey(v []float32) string {
	b := make([]byte, len(v)*4)
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(x))
	}
	return string(b)
}

// ProbeFlight is the single-flight lookup: a hit returns the cached
// prediction directly (fl == nil); a miss returns a Flight handle that is
// either a leadership claim (run the model, then Commit) or a ticket to
// Wait for the identical in-flight request.
func (c *ResultCache) ProbeFlight(features []float32) (pred []float32, ok bool, fl *Flight, err error) {
	if len(features) != c.dim {
		return nil, false, nil, fmt.Errorf("cache: feature width %d, want %d", len(features), c.dim)
	}
	key := featKey(features)
	pred, ok, err = c.lookupKeyed(features, key)
	if err != nil || ok {
		return pred, ok, nil, err
	}
	c.fmu.Lock()
	if f, inflight := c.flights[key]; inflight {
		c.fmu.Unlock()
		return nil, false, &Flight{c: c, key: key, f: f}, nil
	}
	// A leader may have committed between the lookup above and fmu: Commit
	// inserts before it settles, so re-check the exact map rather than lead
	// (and insert) the same features a second time.
	c.mu.RLock()
	id, hit := c.exact[key]
	if hit {
		pred = c.preds[id]
	}
	c.mu.RUnlock()
	if hit {
		c.fmu.Unlock()
		c.misses.Add(-1)
		c.hits.Add(1)
		return pred, true, nil, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()
	return nil, false, &Flight{c: c, key: key, f: f, leader: true}, nil
}

// Leader reports whether this handle owns the computation.
func (fl *Flight) Leader() bool { return fl.leader }

// Commit publishes the leader's prediction to all waiting followers and
// inserts it into the cache. It must be called exactly once, by the leader.
func (fl *Flight) Commit(features, prediction []float32) error {
	if !fl.leader {
		return fmt.Errorf("cache: Commit on a follower flight")
	}
	err := fl.c.Insert(features, prediction)
	fl.f.pred = prediction
	fl.settle()
	return err
}

// Cancel settles a failed leadership: followers receive err from Wait.
func (fl *Flight) Cancel(err error) {
	if !fl.leader {
		return
	}
	fl.f.err = err
	fl.settle()
}

func (fl *Flight) settle() {
	fl.c.fmu.Lock()
	delete(fl.c.flights, fl.key)
	fl.c.fmu.Unlock()
	close(fl.f.done)
}

// Wait blocks until the leader settles and returns its prediction (which
// must not be mutated) or its cancellation error.
func (fl *Flight) Wait() ([]float32, error) {
	<-fl.f.done
	return fl.settled()
}

// WaitCancel is Wait observing a query-cancellation token: a follower whose
// query is cancelled while the leader is still computing stops waiting and
// returns the cancellation cause. The flight itself is untouched — the
// leader still settles it for any other followers. A nil token behaves
// exactly like Wait.
func (fl *Flight) WaitCancel(tok *lifecycle.Token) ([]float32, error) {
	select {
	case <-fl.f.done:
		return fl.settled()
	case <-tok.Done():
		return nil, tok.Cause()
	}
}

func (fl *Flight) settled() ([]float32, error) {
	if fl.f.err != nil {
		return nil, fl.f.err
	}
	fl.c.shared.Add(1)
	return fl.f.pred, nil
}

// CachedModel serves a model through a result cache: lookups that hit reuse
// the cached prediction; misses run the model and insert the fresh result.
type CachedModel struct {
	Model *nn.Model
	Cache *ResultCache
	// InsertOnMiss controls whether misses populate the cache (on by
	// default through NewCachedModel).
	InsertOnMiss bool
}

// NewCachedModel wraps model with cache.
func NewCachedModel(model *nn.Model, cache *ResultCache) *CachedModel {
	return &CachedModel{Model: model, Cache: cache, InsertOnMiss: true}
}

// PredictRow serves one feature row, preferring the cache. The flat row is
// reshaped to the model's input shape (e.g. a flattened image back to
// NHWC) before a miss runs the model.
func (cm *CachedModel) PredictRow(features []float32) ([]float32, error) {
	if pred, ok, err := cm.Cache.Lookup(features); err != nil {
		return nil, err
	} else if ok {
		return pred, nil
	}
	shape := append([]int(nil), cm.Model.InShape...)
	shape[0] = 1
	vol := 1
	for _, d := range shape[1:] {
		vol *= d
	}
	if vol != len(features) {
		return nil, fmt.Errorf("cache: row width %d does not match model input %v", len(features), cm.Model.InShape[1:])
	}
	x := tensor.FromSlice(append([]float32(nil), features...), shape...)
	out := cm.Model.Forward(x)
	pred := append([]float32(nil), out.Data()...)
	if cm.InsertOnMiss {
		if err := cm.Cache.Insert(features, pred); err != nil {
			return nil, err
		}
	}
	return pred, nil
}

// PredictClass serves one row and returns the argmax class.
func (cm *CachedModel) PredictClass(features []float32) (int, error) {
	pred, err := cm.PredictRow(features)
	if err != nil {
		return 0, err
	}
	best := 0
	for j := 1; j < len(pred); j++ {
		if pred[j] > pred[best] {
			best = j
		}
	}
	return best, nil
}

// EstimateAgreement is the Monte-Carlo error-bound estimator of Sec. 5: it
// draws the rows of sample, serves each both through the cache path and the
// full model, and returns the fraction whose argmax classes agree. The
// estimate is what the adaptive policy compares against the SLA. Cache
// state (hit counters, inserted entries) is modified by the probe.
func EstimateAgreement(cm *CachedModel, sample *tensor.Tensor) (float64, error) {
	if sample.Rank() != 2 {
		return 0, fmt.Errorf("cache: sample must be 2-D, got %v", sample.Shape())
	}
	n := sample.Dim(0)
	if n == 0 {
		return 0, fmt.Errorf("cache: empty sample")
	}
	shape := append([]int(nil), cm.Model.InShape...)
	shape[0] = n
	batch := sample.Clone().Reshape(shape...)
	out := cm.Model.Forward(batch)
	out = out.Reshape(n, out.Len()/n)
	full := make([]int, n)
	for i := range full {
		full[i] = out.ArgMaxRow(i)
	}
	agree := 0
	for i := 0; i < n; i++ {
		got, err := cm.PredictClass(sample.Row(i))
		if err != nil {
			return 0, err
		}
		if got == full[i] {
			agree++
		}
	}
	return float64(agree) / float64(n), nil
}

// SLA captures an application's tolerance for approximate caching.
type SLA struct {
	// MinAgreement is the lowest acceptable cached-vs-full agreement
	// fraction (e.g. 0.95 allows a 5-point accuracy drop).
	MinAgreement float64
}

// Recommend implements the adaptive caching policy: it estimates agreement
// on the sample via Monte Carlo and recommends the cache only if the
// estimate meets the SLA.
func Recommend(cm *CachedModel, sample *tensor.Tensor, sla SLA) (useCache bool, agreement float64, err error) {
	agreement, err = EstimateAgreement(cm, sample)
	if err != nil {
		return false, 0, err
	}
	return agreement >= sla.MinAgreement, agreement, nil
}
