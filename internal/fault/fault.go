// Package fault is a deterministic fault-point API for exercising the
// storage and connector layers under failing hardware. Components expose
// named fault points ("disk.read", "disk.write", "connector.frame", ...)
// and call Check / CheckData at those points; tests install an Injector
// with a schedule saying which occurrences of which points fail, and with
// what error. Schedules are driven either by explicit occurrence indices
// or by a seeded PRNG, so every failing run is exactly reproducible.
//
// A nil *Injector is valid and injects nothing, so production code holds a
// possibly-nil injector and pays one nil check per fault point when fault
// injection is off.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
)

// Injector holds fault rules keyed by point name and counts every visit to
// every point. It is safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	rules  map[string][]*rule
	counts map[string]uint64
	fired  map[string]uint64
	hooks  map[string][]func()
}

// rule is one scheduled fault for a point. Exactly one scheduling mode is
// set per rule (explicit occurrences, after-N, every-Nth, or seeded
// probability); err is nil for corruption rules, which flip bits instead of
// returning an error.
type rule struct {
	err     error
	at      map[uint64]struct{}
	after   uint64
	every   uint64
	prob    float64
	rng     *rand.Rand
	corrupt bool
}

// New returns an empty injector.
func New() *Injector {
	return &Injector{
		rules:  make(map[string][]*rule),
		counts: make(map[string]uint64),
		fired:  make(map[string]uint64),
	}
}

func (i *Injector) add(point string, r *rule) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules[point] = append(i.rules[point], r)
}

// FailAt schedules err at the given 1-based occurrences of point: FailAt("disk.read", e, 3)
// fails the third read only.
func (i *Injector) FailAt(point string, err error, occurrences ...uint64) {
	at := make(map[uint64]struct{}, len(occurrences))
	for _, n := range occurrences {
		at[n] = struct{}{}
	}
	i.add(point, &rule{err: err, at: at})
}

// FailAfter schedules err for every occurrence of point from the nth on
// (1-based): FailAfter("disk.write", e, 1) fails all writes.
func (i *Injector) FailAfter(point string, err error, n uint64) {
	if n == 0 {
		n = 1
	}
	i.add(point, &rule{err: err, after: n})
}

// FailEvery schedules err at every nth occurrence of point.
func (i *Injector) FailEvery(point string, err error, n uint64) {
	if n == 0 {
		n = 1
	}
	i.add(point, &rule{err: err, every: n})
}

// FailSeeded schedules err at each occurrence of point with probability
// prob, drawn from a PRNG seeded with seed — random-looking but exactly
// reproducible schedules for soak tests.
func (i *Injector) FailSeeded(point string, err error, seed int64, prob float64) {
	i.add(point, &rule{err: err, prob: prob, rng: rand.New(rand.NewSource(seed))})
}

// CorruptAt schedules a deterministic single-bit flip in the buffer passed
// to CheckData at the given 1-based occurrences of point. The flipped bit
// position is derived from the occurrence index, so a corrupted run is
// byte-for-byte reproducible.
func (i *Injector) CorruptAt(point string, occurrences ...uint64) {
	at := make(map[uint64]struct{}, len(occurrences))
	for _, n := range occurrences {
		at[n] = struct{}{}
	}
	i.add(point, &rule{at: at, corrupt: true})
}

// Do runs fn at every visit to point, before the point's faults are
// checked and outside the injector's lock, so a test can interleave an
// action (say, a concurrent allocation) at an exact spot of the code under
// test. fn may visit fault points itself.
func (i *Injector) Do(point string, fn func()) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.hooks == nil {
		i.hooks = make(map[string][]func())
	}
	i.hooks[point] = append(i.hooks[point], fn)
}

// runHooks calls point's Do actions.
func (i *Injector) runHooks(point string) {
	i.mu.Lock()
	hooks := i.hooks[point]
	i.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// fires reports whether r fires at occurrence n (1-based).
func (r *rule) fires(n uint64) bool {
	switch {
	case r.at != nil:
		_, hit := r.at[n]
		return hit
	case r.after > 0:
		return n >= r.after
	case r.every > 0:
		return n%r.every == 0
	case r.rng != nil:
		return r.rng.Float64() < r.prob
	}
	return false
}

// Check visits point and returns the scheduled error, if any fires at this
// occurrence. Nil injector: no fault, no bookkeeping.
func (i *Injector) Check(point string) error {
	if i == nil {
		return nil
	}
	i.runHooks(point)
	err, _ := i.visit(point, nil)
	return err
}

// CheckData visits a point that owns a data buffer (a page just read, a
// frame about to be sent): error rules behave as in Check, and corruption
// rules flip one deterministic bit of buf in place. A corruption rule that
// fires returns nil — the caller's integrity check (page checksum, frame
// CRC) is what must catch it.
func (i *Injector) CheckData(point string, buf []byte) error {
	if i == nil {
		return nil
	}
	i.runHooks(point)
	err, _ := i.visit(point, buf)
	return err
}

func (i *Injector) visit(point string, buf []byte) (error, uint64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.counts[point]++
	n := i.counts[point]
	for _, r := range i.rules[point] {
		if !r.fires(n) {
			continue
		}
		i.fired[point]++
		if r.corrupt {
			if len(buf) > 0 {
				// Knuth multiplicative hash of the occurrence index picks
				// the bit, so the damage pattern is schedule-determined.
				bit := (n * 0x9E3779B97F4A7C15) % uint64(len(buf)*8)
				buf[bit/8] ^= 1 << (bit % 8)
			}
			continue
		}
		return fmt.Errorf("fault: %s occurrence %d: %w", point, n, r.err), n
	}
	return nil, n
}

// Count returns how many times point has been visited.
func (i *Injector) Count(point string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts[point]
}

// Fired returns how many faults (errors or corruptions) have been injected
// at point.
func (i *Injector) Fired(point string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired[point]
}

// Clear removes all rules and Do actions for point, keeping its visit
// count.
func (i *Injector) Clear(point string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.rules, point)
	delete(i.hooks, point)
}

// Reset removes every rule and Do action and zeroes every counter.
func (i *Injector) Reset() {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = make(map[string][]*rule)
	i.counts = make(map[string]uint64)
	i.fired = make(map[string]uint64)
	i.hooks = nil
}
