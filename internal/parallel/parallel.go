// Package parallel implements the shared worker-pool scheduler that
// coordinates the engine's query-level workers with the tensor kernels'
// internal fan-out — the paper's Sec. 3 problem of RDBMS threads and
// BLAS/OpenMP threads independently oversubscribing the same cores.
//
// The design is a single process-wide Budget of compute tokens (one per
// core). Every component that wants to run on more than its caller's
// goroutine — the blocked-multiply scheduler, the partitioned aggregate,
// a matmul kernel fanning out over row bands — asks the budget for extra
// tokens and gets however many are actually free, possibly zero. The
// caller's own goroutine is always an implicit worker, so progress never
// depends on token availability; tokens only bound *additional*
// parallelism. Nesting therefore degrades gracefully: when the block
// scheduler has taken every token for block-level workers, the kernels
// inside those workers find the budget empty and run serially instead of
// multiplying the goroutine count.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tensorbase/internal/lifecycle"
)

// Budget is a pool of compute tokens. Acquire-style calls never hand out
// more than Total tokens; the high-water mark records the peak tokens ever
// simultaneously held, which regression tests use to prove the engine does
// not oversubscribe. Budget is safe for concurrent use.
type Budget struct {
	mu    sync.Mutex
	cond  *sync.Cond
	total int
	inUse int
	high  int
}

// NewBudget returns a budget of n tokens (n <= 0 uses GOMAXPROCS).
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	b := &Budget{total: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Total returns the token count.
func (b *Budget) Total() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

// InUse returns the tokens currently held.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}

// Available returns the tokens currently free.
func (b *Budget) Available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - b.inUse
}

// Acquire blocks until n tokens are held. Acquiring more than Total panics
// (it would deadlock).
func (b *Budget) Acquire(n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.total {
		panic(fmt.Sprintf("parallel: acquire of %d exceeds %d tokens", n, b.total))
	}
	for b.total-b.inUse < n {
		b.cond.Wait()
	}
	b.takeLocked(n)
}

// TryAcquire attempts to take exactly n tokens without blocking, returning
// whether it succeeded.
func (b *Budget) TryAcquire(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.total-b.inUse {
		return false
	}
	b.takeLocked(n)
	return true
}

// TryAcquireUpTo takes as many tokens as are free, at most n, and returns
// the number taken (possibly zero). This is the partial grant nested
// parallelism uses: a kernel that wants k-way fan-out runs with
// 1 + TryAcquireUpTo(k-1) workers.
func (b *Budget) TryAcquireUpTo(n int) int {
	if n <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if free := b.total - b.inUse; n > free {
		n = free
	}
	if n > 0 {
		b.takeLocked(n)
	}
	return n
}

func (b *Budget) takeLocked(n int) {
	b.inUse += n
	if b.inUse > b.high {
		b.high = b.inUse
	}
}

// Release returns n tokens. Releasing more than is held panics: it
// indicates double-release accounting in the caller.
func (b *Budget) Release(n int) {
	if n == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 || n > b.inUse {
		panic(fmt.Sprintf("parallel: release of %d with %d in use", n, b.inUse))
	}
	b.inUse -= n
	b.cond.Broadcast()
}

// HighWater returns the peak tokens simultaneously held since the last
// ResetHighWater.
func (b *Budget) HighWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.high
}

// ResetHighWater clears the high-water mark (down to the current in-use
// count).
func (b *Budget) ResetHighWater() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.high = b.inUse
}

// defaultBudget is the process-wide budget every kernel and scheduler draws
// from unless a component is explicitly handed its own.
var defaultBudget atomic.Pointer[Budget]

func init() {
	defaultBudget.Store(NewBudget(0))
}

// Default returns the process-wide compute budget.
func Default() *Budget { return defaultBudget.Load() }

// SetDefault installs b as the process-wide budget and returns the previous
// one so callers (tests) can restore it.
func SetDefault(b *Budget) *Budget {
	if b == nil {
		b = NewBudget(0)
	}
	return defaultBudget.Swap(b)
}

// failedHook runs after a worker has marked a pool run failed, before it
// returns. Tests set it to make that moment observable.
var failedHook = func() {}

// Run executes task(i) for every i in [0, n) using the caller's goroutine
// plus workers-1 spawned ones, handing out indices dynamically so uneven
// tasks balance. The caller is responsible for sizing workers against a
// Budget (or forcing a count, e.g. in a benchmark sweep); Run itself spawns
// exactly what it is told. The first task error stops the remaining work
// (tasks already running complete) and is returned. A panicking task does
// not kill the process: it is recovered, converted to a *lifecycle.PanicError,
// and reported like any other task error.
func Run(workers, n int, task func(i int) error) error {
	return RunCancel(nil, workers, n, task)
}

// RunCancel is Run with a cancellation token: before each task, every worker
// checks tok and stops handing out work once the token fires, returning the
// context's error. A nil token behaves exactly like Run.
func RunCancel(tok *lifecycle.Token, workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	// runTask isolates the recover so a panic in task(i) aborts only this
	// pool run, with the offending stack attached.
	runTask := func(i int) (err error) {
		defer func() {
			if perr := lifecycle.AsError(recover()); perr != nil {
				err = perr
			}
		}()
		return task(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := tok.Err(); err != nil {
				return err
			}
			if err := runTask(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	work := func() {
		for !failed.Load() {
			if err := tok.Err(); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := runTask(i); err != nil {
				errOnce.Do(func() { firstErr = err })
				failed.Store(true)
				failedHook()
				return
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}
