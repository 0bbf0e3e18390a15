package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBudgetCounts(t *testing.T) {
	b := NewBudget(4)
	if b.Total() != 4 || b.Available() != 4 || b.InUse() != 0 {
		t.Fatalf("fresh budget: total=%d avail=%d inUse=%d", b.Total(), b.Available(), b.InUse())
	}
	b.Acquire(3)
	if b.Available() != 1 || b.InUse() != 3 {
		t.Fatalf("after acquire: avail=%d inUse=%d", b.Available(), b.InUse())
	}
	b.Release(2)
	if b.Available() != 3 || b.InUse() != 1 {
		t.Fatalf("after release: avail=%d inUse=%d", b.Available(), b.InUse())
	}
	b.Release(1)
}

func TestBudgetDefaultsToGOMAXPROCS(t *testing.T) {
	if NewBudget(0).Total() < 1 {
		t.Fatal("zero-token budget")
	}
	if NewBudget(-3).Total() < 1 {
		t.Fatal("zero-token budget")
	}
}

func TestAcquireBeyondTotalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire(total+1) must panic, not deadlock")
		}
	}()
	NewBudget(2).Acquire(3)
}

func TestReleaseBeyondHeldPanics(t *testing.T) {
	b := NewBudget(2)
	b.Acquire(1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release must panic")
		}
	}()
	b.Release(2)
}

func TestTryAcquireAllOrNothing(t *testing.T) {
	b := NewBudget(3)
	if !b.TryAcquire(3) {
		t.Fatal("3 of 3 should succeed")
	}
	if b.TryAcquire(1) {
		t.Fatal("budget is drained")
	}
	if b.InUse() != 3 {
		t.Fatalf("failed TryAcquire leaked: inUse=%d", b.InUse())
	}
	b.Release(3)
	if b.TryAcquire(4) {
		t.Fatal("more than total must fail")
	}
	if b.InUse() != 0 {
		t.Fatalf("failed TryAcquire leaked: inUse=%d", b.InUse())
	}
}

func TestTryAcquireUpToPartialGrant(t *testing.T) {
	b := NewBudget(4)
	b.Acquire(3)
	if got := b.TryAcquireUpTo(8); got != 1 {
		t.Fatalf("partial grant = %d, want 1", got)
	}
	if got := b.TryAcquireUpTo(8); got != 0 {
		t.Fatalf("drained grant = %d, want 0", got)
	}
	if got := b.TryAcquireUpTo(0); got != 0 {
		t.Fatalf("zero request = %d", got)
	}
	b.Release(4)
}

func TestAcquireBlocksUntilReleased(t *testing.T) {
	b := NewBudget(1)
	b.Acquire(1)
	got := make(chan struct{})
	go func() {
		b.Acquire(1) // must block until the release below
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("second Acquire succeeded while token was held")
	default:
	}
	b.Release(1)
	<-got
	b.Release(1)
}

func TestHighWaterTracksPeak(t *testing.T) {
	b := NewBudget(8)
	b.Acquire(5)
	b.Release(3)
	b.Acquire(1)
	if hw := b.HighWater(); hw != 5 {
		t.Fatalf("high water = %d, want 5", hw)
	}
	b.ResetHighWater()
	if hw := b.HighWater(); hw != 3 {
		t.Fatalf("reset high water = %d, want current in-use 3", hw)
	}
	b.Release(3)
}

// The core oversubscription property: no interleaving of concurrent
// TryAcquireUpTo/Release ever drives the held-token peak past Total.
func TestConcurrentAcquireNeverOversubscribes(t *testing.T) {
	b := NewBudget(4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := b.TryAcquireUpTo(3)
				if n > 0 {
					b.Release(n)
				}
			}
		}()
	}
	wg.Wait()
	if hw := b.HighWater(); hw > b.Total() {
		t.Fatalf("high water %d exceeds total %d", hw, b.Total())
	}
	if b.InUse() != 0 {
		t.Fatalf("tokens leaked: %d", b.InUse())
	}
}

func TestSetDefaultRestores(t *testing.T) {
	mine := NewBudget(2)
	prev := SetDefault(mine)
	if Default() != mine {
		t.Fatal("SetDefault did not install")
	}
	SetDefault(prev)
	if Default() != prev {
		t.Fatal("restore failed")
	}
	if SetDefault(nil) == nil {
		t.Fatal("swap must return previous")
	}
	SetDefault(prev)
}

func TestRunCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		const n = 100
		var hits [n]atomic.Int32
		err := Run(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d run %d times", workers, i, got)
			}
		}
	}
}

func TestRunReturnsFirstErrorAndStops(t *testing.T) {
	boom := errors.New("boom")
	// Tasks 0-2 hold their workers until task 3's worker has marked the
	// run failed, so the fourth worker takes task 3 and no worker can take
	// a fifth task before the stop is visible.
	stopped := make(chan struct{})
	failedHook = func() { close(stopped) }
	defer func() { failedHook = func() {} }()
	var ran atomic.Int32
	err := Run(4, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		<-stopped
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("%d tasks ran: error did not stop remaining work after the 4 in flight", n)
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(4, 0, func(int) error { t.Fatal("task ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}
