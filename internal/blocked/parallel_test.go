package blocked

import (
	"math/rand"
	"sync"
	"testing"

	"tensorbase/internal/memlimit"
	"tensorbase/internal/parallel"
	"tensorbase/internal/tensor"
)

// Parallel MultiplyStreaming must be bit-identical to serial: every result
// block is computed wholly by one worker in the same k-order, so not even
// float rounding may differ.
func TestMultiplyStreamingParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMat(rng, 100, 130)
	b := randMat(rng, 70, 130) // (out,in)
	var serial *tensor.Tensor
	for _, workers := range []int{1, 2, 4, 8} {
		pool := newPool(t, 32)
		ab, err := Store(pool, a, 16)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := Store(pool, b, 16)
		if err != nil {
			t.Fatal(err)
		}
		c, err := MultiplyStreamingWorkers(pool, ab, bb, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serial = got
			continue
		}
		if !got.Equal(serial) {
			t.Fatalf("workers=%d: parallel result differs from serial", workers)
		}
	}
}

// Parallel multiply under a pool far smaller than the operands: workers
// race on fetch, eviction, and reload of the same pages, and the result
// must still match the serial one exactly. Run under -race this is the
// buffer-pool/heap latching stress test.
func TestMultiplyStreamingParallelUnderEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 256, 256)
	b := randMat(rng, 256, 256)

	// 64×64 blocks are 16 KiB — one per 32 KiB page — so each operand spans
	// 16 pages and the result another 16. Heap inserts serialise on the
	// write latch, so simultaneous pins are bounded by workers+1 = 5; an
	// 8-frame pool always has a victim yet still evicts constantly.
	serialPool := newPool(t, 8)
	sa, _ := Store(serialPool, a, 64)
	sb, _ := Store(serialPool, b, 64)
	sc, err := MultiplyStreamingWorkers(serialPool, sa, sb, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Assemble()
	if err != nil {
		t.Fatal(err)
	}

	pool := newPool(t, 8)
	pa, _ := Store(pool, a, 64)
	pb, _ := Store(pool, b, 64)
	pc, err := MultiplyStreamingWorkers(pool, pa, pb, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pc.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("spilling parallel multiply differs from serial")
	}
	if pool.Stats().Evictions == 0 {
		t.Fatal("test did not force evictions")
	}
}

// N goroutines hammering Matrix.Block on a spill-forcing 2-frame pool must
// each read exactly the stored bytes — the concurrent-miss path of the
// buffer pool (two workers racing to load the same evicted page) must never
// surface half-read frames.
func TestConcurrentBlockReadsUnderSpill(t *testing.T) {
	// 16 one-page blocks over a 6-frame pool: fetches constantly evict and
	// reload, and concurrent misses on the same page race. 4 readers each
	// pin at most one page, so a victim frame always exists.
	pool := newPool(t, 6)
	rng := rand.New(rand.NewSource(13))
	in := randMat(rng, 256, 256)
	m, err := Store(pool, in, 64)
	if err != nil {
		t.Fatal(err)
	}
	nrb, ncb := m.NumRowBlocks(), m.NumColBlocks()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				rb, cb := r.Intn(nrb), r.Intn(ncb)
				blk, err := m.Block(rb, cb)
				if err != nil {
					errs <- err
					return
				}
				want := in.Slice2D(rb*64, (rb+1)*64, cb*64, (cb+1)*64)
				if !blk.Equal(want) {
					errs <- errBlockMismatch{rb, cb}
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errBlockMismatch struct{ rb, cb int }

func (e errBlockMismatch) Error() string {
	return "concurrent read of block returned wrong bytes"
}

// The k-loop of MultiplyStreaming must not allocate per k-step: doubling
// the inner dimension (twice the k-iterations) must not increase the total
// allocation count. The per-task costs (accumulator pooling, result
// insert) stay; the per-k-step costs must be zero.
func TestMultiplyStreamingAllocsIndependentOfK(t *testing.T) {
	const bs = 16
	measure := func(k int) float64 {
		pool := newPool(t, 64)
		rng := rand.New(rand.NewSource(14))
		ab, err := Store(pool, randMat(rng, bs, k), bs)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := Store(pool, randMat(rng, bs, k), bs)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := MultiplyStreamingWorkers(pool, ab, bb, nil, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	few := measure(4 * bs)   // 4 k-steps for the single result block
	many := measure(16 * bs) // 16 k-steps
	// Allow a little slack for map growth in the result matrix.
	if many > few+2 {
		t.Fatalf("allocs grew with k: %0.1f at k=4 blocks vs %0.1f at k=16 blocks", few, many)
	}
}

// Block-level workers and the memory budget interact: the scheduler sheds
// workers until the per-worker working set fits, and degrades to the serial
// footprint rather than failing, while a budget below even one worker's
// working set still reports OOM.
func TestMultiplyStreamingWorkerShedding(t *testing.T) {
	pool := newPool(t, 32)
	rng := rand.New(rand.NewSource(15))
	a, _ := Store(pool, randMat(rng, 64, 64), 16)
	b, _ := Store(pool, randMat(rng, 64, 64), 16)
	// 3 blocks/worker × 1 KiB blocks: 4 KiB holds exactly one worker.
	oneWorker := memlimit.NewBudget(4 << 10)
	if _, err := MultiplyStreamingWorkers(pool, a, b, oneWorker, 8); err != nil {
		t.Fatalf("shedding to one worker should succeed, got %v", err)
	}
	if oneWorker.Reserved() != 0 {
		t.Fatalf("leaked %d bytes", oneWorker.Reserved())
	}
	if peak := oneWorker.Peak(); peak > 3<<10 {
		t.Fatalf("shed run reserved %d bytes, want the serial footprint 3072", peak)
	}
}

// Unforced multiplies size their fan-out from the shared budget and must
// return every token.
func TestMultiplyStreamingReturnsBudgetTokens(t *testing.T) {
	shared := parallel.NewBudget(4)
	prev := parallel.SetDefault(shared)
	defer parallel.SetDefault(prev)

	pool := newPool(t, 32)
	rng := rand.New(rand.NewSource(16))
	a, _ := Store(pool, randMat(rng, 64, 64), 16)
	b, _ := Store(pool, randMat(rng, 64, 64), 16)
	if _, err := MultiplyStreaming(pool, a, b, nil); err != nil {
		t.Fatal(err)
	}
	if shared.InUse() != 0 {
		t.Fatalf("multiply leaked %d budget tokens", shared.InUse())
	}
	if hw := shared.HighWater(); hw > 4 {
		t.Fatalf("high water %d exceeds budget", hw)
	}
}
