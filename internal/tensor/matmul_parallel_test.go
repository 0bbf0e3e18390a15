package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tensorbase/internal/parallel"
)

// The first accumulation into zeros is Dense: its bits on the columns
// Dense sums in k order, within rounding on the n mod 4 tail. The second
// adds the same product again.
func TestDenseAddIntoAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 7, 11)
	w := randTensor(rng, 6, 11)
	want := Dense(a, w, nil, false)

	out, panel := New(7, 6), new(Panel)
	DenseAddInto(out, a, w, panel)
	if !out.AlmostEqual(want, 1e-5) {
		t.Fatal("one accumulation into zeros must equal Dense")
	}
	for i := 0; i < 7; i++ {
		sameBits(t, "k-order columns", out.Row(i)[:4], want.Row(i)[:4])
	}
	DenseAddInto(out, a, w, panel)
	for i, v := range out.Data() {
		w := 2 * want.Data()[i]
		if diff := v - w; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("elem %d: %v, want %v (accumulation lost)", i, v, w)
		}
	}
}

func TestDenseAddIntoShapePanics(t *testing.T) {
	for _, c := range []struct {
		name      string
		out, a, w *Tensor
	}{
		{"inner mismatch", New(2, 2), New(2, 3), New(2, 4)},
		{"out mismatch", New(3, 3), New(2, 3), New(2, 3)},
		{"rank", New(2, 2), New(2, 2, 1), New(2, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: must panic", c.name)
				}
			}()
			DenseAddInto(c.out, c.a, c.w, new(Panel))
		}()
	}
}

// DenseAddInto is the per-k-step inner call of the blocked multiply; with
// its caller's panel it must not allocate at all, in any build.
func TestDenseAddIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randTensor(rng, 64, 64)
	w := randTensor(rng, 64, 64)
	out, panel := New(64, 64), new(Panel)
	if allocs := testing.AllocsPerRun(20, func() {
		DenseAddInto(out, a, w, panel)
	}); allocs != 0 {
		t.Fatalf("DenseAddInto allocates %.1f objects per call, want 0", allocs)
	}
}

// A chain of DenseAddInto over consecutive k blocks, started from zeros,
// is Dense bit for bit on every column Dense sums in k order, whatever the
// block widths, for inputs full of special values — activations more than
// half zero meeting infinite and NaN weights among them, where 0·Inf must
// come out NaN as it does in Dense.
func TestDenseAddIntoMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	panel := new(Panel)
	for i, c := range denseCases() {
		if c.k == 0 {
			continue
		}
		sp := specialsFor(i)
		x := specialTensor(rng, sp, c.m, c.k)
		if i%2 == 0 {
			for j := range x.data {
				if rng.Intn(4) != 0 {
					x.data[j] = 0
				}
			}
		}
		w := specialTensor(rng, sp, c.n, c.k)
		want := Dense(x, w, nil, false)
		got := New(c.m, c.n)
		for k0 := 0; k0 < c.k; {
			k1 := min(c.k, k0+1+rng.Intn(80))
			DenseAddInto(got, x.Slice2D(0, c.m, k0, k1), w.Slice2D(0, c.n, k0, k1), panel)
			k0 = k1
		}
		exact := c.n &^ 3
		for r := 0; r < c.m; r++ {
			sameBits(t, fmt.Sprintf("(%d,%d)×(%d,%d)ᵀ row %d", c.m, c.k, c.n, c.k, r), got.Row(r)[:exact], want.Row(r)[:exact])
		}
	}
}

// withProcs widens GOMAXPROCS so the fan-out path is reachable on small CI
// machines, restoring it afterwards.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// withBudget installs a private compute budget as the process default for
// the test's duration.
func withBudget(t *testing.T, n int) *parallel.Budget {
	t.Helper()
	b := parallel.NewBudget(n)
	prev := parallel.SetDefault(b)
	t.Cleanup(func() { parallel.SetDefault(prev) })
	return b
}

// Kernels must draw their extra goroutines from the shared budget: with the
// budget drained the kernel runs serially, and it never holds tokens after
// returning. This is the oversubscription regression test of Sec. 3 — the
// engine's block workers and the kernels cannot multiply their thread
// counts because both debit one account.
func TestKernelFanOutRespectsSharedBudget(t *testing.T) {
	withProcs(t, 4)
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 128, 128)
	b := randTensor(rng, 128, 128) // 128³ = 2M mul-adds, over the threshold
	want := MatMul(a, b)           // computed under the real default budget

	drained := withBudget(t, 2)
	drained.Acquire(2)
	drained.ResetHighWater()
	got := MatMul(a, b)
	drained.Release(2)
	if hw := drained.HighWater(); hw > 2 {
		t.Fatalf("kernel pushed high water to %d with budget drained", hw)
	}
	if !got.Equal(want) {
		t.Fatal("serial-degraded kernel changed the result")
	}

	open := withBudget(t, 4)
	got = MatMul(a, b)
	if hw := open.HighWater(); hw > 4 {
		t.Fatalf("kernel high water %d exceeds budget 4", hw)
	}
	if open.InUse() != 0 {
		t.Fatalf("kernel leaked %d tokens", open.InUse())
	}
	if !got.Equal(want) {
		t.Fatal("parallel kernel result is not bit-identical to serial")
	}
}

func TestSetMaxWorkersCapsKernel(t *testing.T) {
	withProcs(t, 4)
	b := withBudget(t, 4)
	SetMaxWorkers(1)
	defer SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 128, 128)
	y := randTensor(rng, 128, 128)
	_ = MatMul(x, y)
	if hw := b.HighWater(); hw != 0 {
		t.Fatalf("capped kernel still took %d tokens", hw)
	}
}

func TestReuse2D(t *testing.T) {
	var v Tensor
	buf := []float32{1, 2, 3, 4, 5, 6}
	v.Reuse2D(buf, 2, 3)
	if v.Dim(0) != 2 || v.Dim(1) != 3 || &v.Data()[0] != &buf[0] {
		t.Fatal("Reuse2D must alias the caller's buffer")
	}
	v.Reuse2D(buf[:4], 2, 2) // shrinking reuses the shape slice
	if v.Dim(0) != 2 || v.Dim(1) != 2 {
		t.Fatalf("reshaped to %v", v.Shape())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	v.Reuse2D(buf, 2, 2)
}
