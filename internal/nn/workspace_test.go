package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tensorbase/internal/tensor"
	"tensorbase/internal/testutil"
)

// zooCases is every zoo model at a batch that leaves 4-row tiles with
// leftover rows, as TestFusedForwardMatchesLayerByLayer runs them.
func zooCases(rng *rand.Rand) []struct {
	model *Model
	batch int
} {
	return []struct {
		model *Model
		batch int
	}{
		{FraudFC(rng, 1024), 258},
		{FraudFC(rng, 32), 5},
		{EncoderFC(rng), 6},
		{Amazon14kFC(rng, 1024), 17},
		{DeepBenchConv1(rng), 1},
		{LandCover(rng, 100), 2},
		{BoschFC(rng, 968), 33},
		{CacheCNN(rng, 12), 9},
		{CacheFFNN(rng, 784), 13},
	}
}

func sameBitsT(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !sameShape(got.Shape(), want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, g := range got.Data() {
		w := want.Data()[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, g, w)
		}
	}
}

// A forward pass through a workspace returns Forward's bits for every zoo
// model and its int8 twin, leaves its input as it was, and returns a tensor
// that a later pass through the same workspace does not touch.
func TestWorkspaceForwardMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, c := range zooCases(rng) {
		twin, err := QuantizeResident(c.model)
		if err != nil {
			t.Fatal(err)
		}
		shape := append([]int{c.batch}, c.model.InShape[1:]...)
		for _, m := range []*Model{c.model, twin} {
			what := fmt.Sprintf("%s (batch %d)", m.Name(), c.batch)
			x, y := randInput(rng, shape), randInput(rng, shape)
			x0 := x.Clone()
			ws := new(Workspace)
			got := m.ForwardFrom(x, 0, ws)
			sameBitsT(t, what+" input", x, x0)
			sameBitsT(t, what, got, m.Forward(x.Clone()))
			kept := got.Clone()
			sameBitsT(t, what+" second pass", m.ForwardFrom(y, 0, ws), m.Forward(y.Clone()))
			sameBitsT(t, what+" first result after the second pass", got, kept)
			if ws.Bytes() != m.WorkspaceBytes(c.batch) {
				t.Fatalf("%s: workspace holds %d bytes, WorkspaceBytes says %d", what, ws.Bytes(), m.WorkspaceBytes(c.batch))
			}
		}
	}
}

// ForwardFrom never writes its input, also when the first layer it runs
// is an activation that works in place.
func TestForwardFromLeavesInputUnwritten(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := CacheFFNN(rng, 20)
	x := randInput(rng, []int{6, 20})
	h := m.Layers[0].Forward(x.Clone()) // layer 1 is the ReLU
	h0 := h.Clone()
	want := m.Forward(x.Clone())
	for _, ws := range []*Workspace{nil, new(Workspace)} {
		sameBitsT(t, fmt.Sprintf("ForwardFrom(h, 1) ws=%v", ws != nil), m.ForwardFrom(h, 1, ws), want)
		sameBitsT(t, "h", h, h0)
	}
	// From the head's softmax alone: the result is a fresh tensor.
	last := len(m.Layers) - 1
	out := m.ForwardFrom(h0, last, new(Workspace))
	if &out.Data()[0] == &h0.Data()[0] {
		t.Fatal("softmax over the caller's input returned the input")
	}
}

// The workspace never needs more than the model's largest per-operator
// estimate, the reservation a model UDF holds while it is in use.
func TestWorkspaceBytesWithinMaxOpBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, c := range zooCases(rng) {
		twin, err := QuantizeResident(c.model)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Model{c.model, twin} {
			for _, batch := range []int{1, 5, c.batch, 256} {
				peak, err := m.MaxOpBytes(batch)
				if err != nil {
					t.Fatal(err)
				}
				if ws := m.WorkspaceBytes(batch); ws < 0 || ws > peak {
					t.Fatalf("%s batch %d: workspace %d bytes, reservation %d", m.Name(), batch, ws, peak)
				}
			}
		}
	}
	// Fraud-FC-1024's one hidden activation is the whole workspace.
	if got, want := FraudFC(rng, 1024).WorkspaceBytes(256), int64(256*1024*4); got != want {
		t.Fatalf("Fraud-FC-1024 at 256 rows: %d workspace bytes, want %d", got, want)
	}
}

var sink *tensor.Tensor

// perRun returns f's allocations and allocated bytes per call, the least
// of three measurements: both counters are process-wide, and a collection
// that empties the kernels' scratch pools mid-run only ever adds to them.
func perRun(f func()) (allocs float64, bytes uint64) {
	const runs = 20
	allocs, bytes = math.Inf(1), math.MaxUint64
	for try := 0; try < 3; try++ {
		runtime.GC()
		allocs = min(allocs, testing.AllocsPerRun(runs, f))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// A warm 256-row Fraud-FC-1024 forward through a workspace allocates its
// (256,2) result and nothing else — not the 1 MiB hidden activation — in
// f32 and in the int8 twin: the same allocation count as the result alone,
// and its bytes give or take 64 a call (the test binary's own goroutines
// allocate a few). The kernels run serially here:
// a kernel that fans out allocates its worker goroutines.
func TestWarmWorkspaceForwardAllocatesOnlyItsResult(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector drops pooled scratch at random")
	}
	tensor.SetMaxWorkers(1)
	t.Cleanup(func() { tensor.SetMaxWorkers(0) })
	rng := rand.New(rand.NewSource(55))
	m := FraudFC(rng, 1024)
	twin, err := QuantizeResident(m)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, []int{256, 28})
	rows, width := 256, 2
	wantAllocs, wantBytes := perRun(func() { sink = tensor.New(rows, width) })
	for _, m := range []*Model{m, twin} {
		ws := new(Workspace)
		allocs, bytes := perRun(func() { sink = m.ForwardFrom(x, 0, ws) })
		if allocs != wantAllocs || bytes > wantBytes+64 {
			t.Fatalf("%s: %v allocations, %d bytes a forward; its (%d,%d) result alone is %v, %d",
				m.Name(), allocs, bytes, rows, width, wantAllocs, wantBytes)
		}
		if allocs, bytes := perRun(func() { sink = m.Forward(x) }); bytes < 256*1024*4 {
			t.Fatalf("%s without a workspace: %v allocations, %d bytes; the hidden activation alone is 1 MiB", m.Name(), allocs, bytes)
		}
	}
}
