package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tensorbase/internal/nn"
)

// PlanCache implements the ahead-of-time compilation strategy of Sec. 2:
// when a model is loaded, plans are compiled for a ladder of batch sizes;
// at query time the cached plan for the smallest compiled batch that covers
// the request is selected without re-running the optimizer. Representation
// choices are monotone in batch size under the m·k + k·n + m·n estimate
// (every term is non-decreasing in m), so a plan compiled for a larger
// batch is always memory-safe for a smaller one.
type PlanCache struct {
	opt   *Optimizer
	model *nn.Model

	mu      sync.RWMutex
	batches []int // sorted ascending
	plans   map[int]*InferencePlan
	// misses counts PlanFor calls that had to compile at runtime. Both
	// counters are atomics so a ladder hit never takes the write lock.
	misses atomic.Int64
	hits   atomic.Int64
}

// DefaultPlanLadder is the batch ladder compiled at load time.
var DefaultPlanLadder = []int{1, 16, 256, 4096, 65536}

// NewPlanCache compiles plans for every batch in ladder (DefaultPlanLadder
// if empty).
func NewPlanCache(opt *Optimizer, model *nn.Model, ladder []int) (*PlanCache, error) {
	if len(ladder) == 0 {
		ladder = DefaultPlanLadder
	}
	c := &PlanCache{opt: opt, model: model, plans: make(map[int]*InferencePlan, len(ladder))}
	for _, b := range ladder {
		if b < 1 {
			return nil, fmt.Errorf("core: invalid ladder batch %d", b)
		}
		plan, err := opt.Plan(model, b)
		if err != nil {
			return nil, err
		}
		c.plans[b] = plan
		c.batches = append(c.batches, b)
	}
	sort.Ints(c.batches)
	return c, nil
}

// PlanFor returns the cached plan covering batch (the smallest compiled
// batch >= batch). Batches beyond the ladder compile on demand and join the
// cache.
func (c *PlanCache) PlanFor(batch int) (*InferencePlan, error) {
	if batch < 1 {
		return nil, fmt.Errorf("core: batch %d < 1", batch)
	}
	c.mu.RLock()
	idx := sort.SearchInts(c.batches, batch)
	if idx < len(c.batches) {
		plan := c.plans[c.batches[idx]]
		c.mu.RUnlock()
		c.hits.Add(1)
		return plan, nil
	}
	c.mu.RUnlock()

	plan, err := c.opt.Plan(c.model, batch)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.plans[batch]; !dup {
		c.plans[batch] = plan
		c.batches = append(c.batches, batch)
		sort.Ints(c.batches)
	}
	return plan, nil
}

// Stats returns cache hits (ladder served) and misses (runtime compiles).
func (c *PlanCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Ladder returns the compiled batch sizes, ascending.
func (c *PlanCache) Ladder() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]int(nil), c.batches...)
}
