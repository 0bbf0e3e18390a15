package udf

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tensorbase/internal/lifecycle"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/tensor"
)

func randBatch(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	return x
}

// idle returns the bytes of every workspace u holds between calls.
func idle(u *fused) []int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	var b []int64
	for _, ws := range u.free {
		b = append(b, ws.Bytes())
	}
	return b
}

// Over every zoo model and its int8 twin, the workspace a call leaves
// behind is no larger than the reservation that call held (the budget's
// peak), the reservation is back to 0 after every call, and a smaller
// batch neither grows the workspace nor builds another.
func TestWorkspaceWithinReservation(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, c := range []struct {
		model *nn.Model
		batch int
	}{
		{nn.FraudFC(rng, 1024), 256},
		{nn.EncoderFC(rng), 6},
		{nn.Amazon14kFC(rng, 1024), 17},
		{nn.DeepBenchConv1(rng), 1},
		{nn.LandCover(rng, 100), 2},
		{nn.BoschFC(rng, 968), 33},
		{nn.CacheCNN(rng, 12), 9},
		{nn.CacheFFNN(rng, 784), 13},
	} {
		twin, err := nn.QuantizeResident(c.model)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []*fused{
			&NewModelUDF(c.model, memlimit.NewBudget(1<<40)).fused,
			&NewQuantizedUDF(twin, c.model.Name(), memlimit.NewBudget(1<<40)).fused,
		} {
			for _, batch := range []int{c.batch, 1} {
				shape := append([]int{batch}, c.model.InShape[1:]...)
				u.budget.Reset()
				if _, err := u.apply(randBatch(rng, shape...)); err != nil {
					t.Fatalf("%s batch %d: %v", u.name, batch, err)
				}
				if r := u.budget.Reserved(); r != 0 {
					t.Fatalf("%s batch %d: %d bytes still reserved", u.name, batch, r)
				}
				ws := idle(u)
				if len(ws) != 1 {
					t.Fatalf("%s batch %d: %d idle workspaces, want 1", u.name, batch, len(ws))
				}
				if batch == c.batch && (ws[0] > u.budget.Peak() || ws[0] != u.model.WorkspaceBytes(batch)) {
					t.Fatalf("%s batch %d: workspace %d bytes, reservation %d, need %d",
						u.name, batch, ws[0], u.budget.Peak(), u.model.WorkspaceBytes(batch))
				}
				if batch != c.batch && ws[0] != u.model.WorkspaceBytes(c.batch) {
					t.Fatalf("%s: a batch of %d resized the workspace to %d bytes", u.name, batch, ws[0])
				}
			}
		}
	}
}

// A panic in the middle of a forward pass that runs in a workspace comes
// back as a *lifecycle.PanicError with the reservation released; the
// workspace it was using is dropped, not handed to the next call.
func TestPanicMidForwardReleasesReservation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bad := &nn.Linear{W: tensor.New(2, 64), B: tensor.New(3)} // the bias does not fit
	m, err := nn.NewModel("bad-head", []int{1, 28}, nn.NewLinear(rng, 28, 64), nn.ReLU{}, bad, nn.Softmax{})
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkspaceBytes(8) <= 0 {
		t.Fatal("the hidden layer must run in the workspace")
	}
	b := memlimit.NewBudget(1 << 30)
	u := NewModelUDF(m, b)
	for i := 0; i < 3; i++ {
		_, err := u.Apply(randBatch(rng, 8, 28))
		var perr *lifecycle.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("call %d: err = %v, want a contained panic", i, err)
		}
		if r := b.Reserved(); r != 0 {
			t.Fatalf("call %d: %d bytes still reserved after the panic", i, r)
		}
		if n := len(idle(&u.fused)); n != 0 {
			t.Fatalf("call %d: %d idle workspaces, want the panicking call's dropped", i, n)
		}
	}
}

// Workspaces are built only when every one a UDF holds is in use: serial
// calls share one, and concurrent calls build at most one each.
func TestWorkspacesGrowToPeakConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	u := NewModelUDF(nn.FraudFC(rng, 64), nil)
	x := randBatch(rng, 32, 28)
	before := WorkspacesBuilt()
	for i := 0; i < 5; i++ {
		if _, err := u.Apply(x.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if got := WorkspacesBuilt() - before; got != 1 {
		t.Fatalf("5 serial calls built %d workspaces, want 1", got)
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := u.Apply(x.Clone()); err != nil {
					errs <- fmt.Errorf("caller: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := WorkspacesBuilt() - before; got > callers {
		t.Fatalf("%d concurrent callers built %d workspaces", callers, got)
	}
	if n := len(idle(&u.fused)); n > callers {
		t.Fatalf("%d idle workspaces after %d concurrent callers", n, callers)
	}
}
