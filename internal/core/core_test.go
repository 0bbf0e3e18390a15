package core

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"tensorbase/internal/dlruntime"
	"tensorbase/internal/exec"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/storage"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

func newPool(t *testing.T, frames int) *storage.BufferPool {
	t.Helper()
	d, err := storage.OpenDisk(filepath.Join(t.TempDir(), "core.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return storage.NewBufferPool(d, frames)
}

func TestOptimizerChoosesUDFForSmallModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := nn.FraudFC(rng, 256)
	plan, err := NewOptimizer(2<<30).Plan(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.AllUDF() {
		t.Fatalf("small model should be fully UDF-centric:\n%s", plan.Explain())
	}
}

func TestOptimizerChoosesRelationCentricAboveThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := nn.Amazon14kFC(rng, 100) // 5975 → 1024 → 145
	// First-layer estimate at batch 1000: 1000·5975 + 5975·1024 + 1000·1024
	// floats ≈ 52 MB. Threshold below that forces relation-centric.
	plan, err := NewOptimizer(16<<20).Plan(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Decisions[0].Repr != ReprRelation {
		t.Fatalf("first layer should be relation-centric:\n%s", plan.Explain())
	}
	if plan.NumRelational() == 0 || plan.AllUDF() {
		t.Fatalf("plan summary wrong:\n%s", plan.Explain())
	}
	// The cheap tail ops must stay UDF-centric.
	last := plan.Decisions[len(plan.Decisions)-1]
	if last.Repr != ReprUDF {
		t.Fatalf("tail op should be UDF-centric:\n%s", plan.Explain())
	}
}

func TestOptimizerThresholdBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := nn.FraudFC(rng, 256)
	ests, err := m.MemEstimates(100)
	if err != nil {
		t.Fatal(err)
	}
	maxEst := ests[0].Bytes
	for _, e := range ests {
		if e.Bytes > maxEst {
			maxEst = e.Bytes
		}
	}
	// Threshold exactly at the max estimate: not strictly above, stays UDF.
	plan, err := NewOptimizer(maxEst).Plan(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.AllUDF() {
		t.Fatal("estimate equal to threshold must stay UDF-centric")
	}
	plan, err = NewOptimizer(maxEst-1).Plan(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AllUDF() {
		t.Fatal("estimate above threshold must switch representation")
	}
}

func TestOptimizerZeroThresholdMeansUnlimited(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := nn.EncoderFC(rng)
	plan, err := NewOptimizer(0).Plan(m, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.AllUDF() {
		t.Fatal("zero threshold disables relation-centric switching")
	}
}

func TestOptimizerRejectsBadBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := NewOptimizer(1).Plan(nn.FraudFC(rng, 16), 0); err == nil {
		t.Fatal("batch 0 must error")
	}
}

func TestExplainMentionsRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := nn.Amazon14kFC(rng, 200)
	plan, err := NewOptimizer(16<<20).Plan(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.Explain()
	if !strings.Contains(s, "relation-centric") || !strings.Contains(s, "udf-centric") {
		t.Fatalf("explain missing representations:\n%s", s)
	}
}

func TestExecutorFusedUDFMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := nn.FraudFC(rng, 64)
	plan, err := NewOptimizer(1<<30).Plan(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(newPool(t, 16), nil)
	x := tensor.New(8, 28)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	res, err := ex.Run(plan, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(m.Forward(x.Clone()), 1e-5) {
		t.Fatal("fused UDF result differs from direct forward")
	}
}

func TestExecutorMixedPlanMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := nn.MustModel("mixed", []int{1, 96},
		nn.NewLinear(rng, 96, 80), nn.ReLU{},
		nn.NewLinear(rng, 80, 8), nn.Softmax{},
	)
	// Force the first linear relation-centric with a tiny threshold that
	// the later ops stay under.
	ests, err := m.MemEstimates(16)
	if err != nil {
		t.Fatal(err)
	}
	threshold := ests[2].Bytes + 1 // above the 80→8 linear, below the 96→80 one
	plan, err := NewOptimizer(threshold).Plan(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AllUDF() || plan.Decisions[0].Repr != ReprRelation {
		t.Fatalf("test setup wrong:\n%s", plan.Explain())
	}
	ex := NewExecutor(newPool(t, 64), nil)
	x := tensor.New(16, 96)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	res, err := ex.Run(plan, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(m.Forward(x.Clone()), 1e-3) {
		t.Fatal("mixed plan result differs from direct forward")
	}
}

func TestExecutorRelationalConvMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := nn.MustModel("conv", []int{1, 10, 10, 3}, nn.NewConv2D(rng, 6, 1, 1, 3))
	plan, err := NewOptimizer(1).Plan(m, 1) // everything relation-centric
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(newPool(t, 64), nil)
	x := tensor.New(1, 10, 10, 3)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	res, err := ex.Run(plan, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocked == nil {
		t.Fatal("relation-centric conv should leave a blocked result")
	}
	got, err := res.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	want := m.Forward(x.Clone()).Reshape(100, 6)
	if !got.AlmostEqual(want, 1e-3) {
		t.Fatal("relational conv result differs from direct forward")
	}
}

func TestExecutorUDFPlanOOMsButRelationalCompletes(t *testing.T) {
	// The Table 3 mechanism in miniature: a whole-tensor (UDF) plan whose
	// operator footprint exceeds the budget OOMs, while the relational
	// plan for the same model and batch completes within it.
	rng := rand.New(rand.NewSource(10))
	m := nn.MustModel("big", []int{1, 512}, nn.NewLinear(rng, 512, 256))
	batch := 512
	est, err := m.MaxOpBytes(batch)
	if err != nil {
		t.Fatal(err)
	}
	budget := memlimit.NewBudget(est / 2)
	x := tensor.New(batch, 512)

	udfPlan, err := NewOptimizer(0).Plan(m, batch) // all UDF
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(newPool(t, 256), budget)
	if _, err := ex.Run(udfPlan, x); !errors.Is(err, memlimit.ErrOOM) {
		t.Fatalf("whole-tensor plan err = %v, want ErrOOM", err)
	}

	relPlan, err := NewOptimizer(1).Plan(m, batch) // all relational
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(relPlan, x)
	if err != nil {
		t.Fatalf("relational plan should complete: %v", err)
	}
	if res.Rows() != batch {
		t.Fatalf("rows = %d", res.Rows())
	}
}

func TestExecutorRejectsFlattenAfterRelationalConv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := nn.MustModel("convflat", []int{1, 8, 8, 3},
		nn.NewConv2D(rng, 4, 1, 1, 3), nn.Flatten{})
	plan, err := NewOptimizer(1).Plan(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(newPool(t, 32), nil)
	if _, err := ex.Run(plan, tensor.New(1, 8, 8, 3)); err == nil {
		t.Fatal("flatten after relational conv must be rejected")
	}
}

func TestSplitLinearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := nn.NewLinear(rng, 10, 6)
	for i := range l.B.Data() {
		l.B.Data()[i] = rng.Float32()
	}
	left, right, err := SplitLinear(l, 4)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 10)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	want := l.Forward(x)
	x1 := x.Slice2D(0, 3, 0, 4)
	x2 := x.Slice2D(0, 3, 4, 10)
	got := left.Forward(x1)
	tensor.AddInto(got, right.Forward(x2))
	if !got.AlmostEqual(want, 1e-5) {
		t.Fatal("split violates W·[x1;x2] = W1·x1 + W2·x2")
	}
}

func TestSplitLinearValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := nn.NewLinear(rng, 10, 6)
	if _, _, err := SplitLinear(l, 0); err == nil {
		t.Fatal("split width 0 must error")
	}
	if _, _, err := SplitLinear(l, 10); err == nil {
		t.Fatal("split width = in must error")
	}
}

func featureTable(rng *rand.Rand, n, width int, simSpread float64) []table.Tuple {
	rows := make([]table.Tuple, n)
	for i := range rows {
		vec := make([]float32, width)
		for j := range vec {
			vec[j] = float32(rng.NormFloat64())
		}
		rows[i] = table.Tuple{
			table.FloatVal(rng.Float64() * simSpread),
			table.VecVal(vec),
		}
	}
	return rows
}

func featureSchema(sim, vec string) *table.Schema {
	return table.MustSchema(
		table.Column{Name: sim, Type: table.Float64},
		table.Column{Name: vec, Type: table.FloatVec},
	)
}

func TestPushdownMatchesNaivePlan(t *testing.T) {
	// Right-side column names: distinct from the left's, one that shares
	// the vector's name as a prefix, and the left's own names, which the
	// join renames.
	for _, right := range [][2]string{{"s2", "v2"}, {"v2_s", "v2"}, {"s1", "v1"}} {
		t.Run(right[0]+","+right[1], func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			const f1, f2 = 12, 8
			d1 := featureTable(rng, 40, f1, 3)
			d2 := featureTable(rng, 40, f2, 3)
			model := nn.MustModel("pd", []int{1, f1 + f2},
				nn.NewLinear(rng, f1+f2, 16), nn.ReLU{},
				nn.NewLinear(rng, 16, 2), nn.Softmax{},
			)
			q := &FeatureJoinQuery{
				Left:    exec.NewMemScan(featureSchema("s1", "v1"), d1),
				Right:   exec.NewMemScan(featureSchema(right[0], right[1]), d2),
				LeftSim: "s1", RightSim: right[0],
				LeftVec: "v1", RightVec: right[1],
				Eps:   0.05,
				Model: model,
			}
			naive, err := q.BuildNaive()
			if err != nil {
				t.Fatal(err)
			}
			nrows, err := exec.Collect(naive)
			if err != nil {
				t.Fatal(err)
			}
			pd, err := q.BuildPushdown()
			if err != nil {
				t.Fatal(err)
			}
			prows, err := exec.Collect(pd)
			if err != nil {
				t.Fatal(err)
			}
			if len(nrows) != len(prows) {
				t.Fatalf("row counts differ: naive %d, pushdown %d", len(nrows), len(prows))
			}
			if len(nrows) == 0 {
				t.Fatal("test produced no join matches; widen eps")
			}
			// Both plans end with a prediction column; compare as multisets of
			// prediction vectors rendered to strings.
			np := predictionSet(t, nrows)
			pp := predictionSet(t, prows)
			for i := range np {
				if np[i] != pp[i] {
					t.Fatalf("prediction %d differs:\n%s\n%s", i, np[i], pp[i])
				}
			}
		})
	}
}

func predictionSet(t *testing.T, rows []table.Tuple) []string {
	t.Helper()
	out := make([]string, len(rows))
	for i, r := range rows {
		vec := r[len(r)-1].Vec
		var sb strings.Builder
		for _, v := range vec {
			// Round to absorb float reassociation differences.
			fmt.Fprintf(&sb, "%.4f,", v)
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func TestPlanCacheLadderServesWithoutRecompile(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := nn.FraudFC(rng, 64)
	pc, err := NewPlanCache(NewOptimizer(1<<30), m, []int{16, 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 16, 100, 256} {
		plan, err := pc.PlanFor(b)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Batch < b {
			t.Fatalf("plan for batch %d compiled at %d (< requested)", b, plan.Batch)
		}
	}
	hits, misses := pc.Stats()
	if hits != 4 || misses != 0 {
		t.Fatalf("stats = %d/%d, want 4/0", hits, misses)
	}
	// Beyond the ladder: runtime compile, then cached.
	if _, err := pc.PlanFor(10000); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.PlanFor(10000); err != nil {
		t.Fatal(err)
	}
	hits, misses = pc.Stats()
	if misses != 1 || hits != 5 {
		t.Fatalf("stats after overflow = %d/%d, want 5/1", hits, misses)
	}
	if got := pc.Ladder(); len(got) != 3 || got[2] != 10000 {
		t.Fatalf("ladder = %v", got)
	}
}

func TestPlanCacheConservativeForSmallerBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	m := nn.MustModel("pc", []int{1, 128}, nn.NewLinear(rng, 128, 64))
	// Threshold between the batch-16 and batch-256 estimates of the op.
	e16, err := m.MaxOpBytes(16)
	if err != nil {
		t.Fatal(err)
	}
	e256, err := m.MaxOpBytes(256)
	if err != nil {
		t.Fatal(err)
	}
	if e16 >= e256 {
		t.Fatal("estimates must grow with batch")
	}
	pc, err := NewPlanCache(NewOptimizer((e16+e256)/2), m, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pc.PlanFor(16)
	if err != nil {
		t.Fatal(err)
	}
	// AoT serves the batch-256 plan: relation-centric, which is the
	// conservative (memory-safe) choice for the smaller batch.
	if plan.Decisions[0].Repr != ReprRelation {
		t.Fatalf("plan = %s", plan.Explain())
	}
}

// TestPlanCacheConcurrentHitsCount serves ladder hits from several
// goroutines at once: every hit is counted, none as a miss, and (under
// -race) counting needs no lock.
func TestPlanCacheConcurrentHitsCount(t *testing.T) {
	m := nn.FraudFC(rand.New(rand.NewSource(74)), 16)
	pc, err := NewPlanCache(NewOptimizer(1<<30), m, []int{16, 256})
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := pc.PlanFor(1 + i%256); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits, misses := pc.Stats(); hits != workers*calls || misses != 0 {
		t.Fatalf("stats = %d/%d, want %d/0", hits, misses, workers*calls)
	}
}

func TestPlanCacheValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	m := nn.FraudFC(rng, 16)
	if _, err := NewPlanCache(NewOptimizer(0), m, []int{0}); err == nil {
		t.Fatal("ladder batch 0 must error")
	}
	pc, err := NewPlanCache(NewOptimizer(0), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.PlanFor(0); err == nil {
		t.Fatal("batch 0 must error")
	}
	if len(pc.Ladder()) != len(DefaultPlanLadder) {
		t.Fatalf("default ladder = %v", pc.Ladder())
	}
}

func TestLowerLinearModel(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := nn.FraudFC(rng, 64) // linear+bias, relu, linear+bias, softmax
	plan, err := NewOptimizer(1<<30).Plan(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	counts := g.Counts()
	if counts["input"] != 1 || counts["matmul"] != 2 || counts["add_bias"] != 2 ||
		counts["relu"] != 1 || counts["softmax"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// The graph is a chain: every non-input op consumes the previous one.
	for i, op := range g.Ops {
		if i == 0 {
			if op.Kind != "input" || len(op.Inputs) != 0 {
				t.Fatalf("op 0 = %+v", op)
			}
			continue
		}
		if len(op.Inputs) != 1 || op.Inputs[0] != i-1 {
			t.Fatalf("op %d inputs = %v", i, op.Inputs)
		}
	}
	out := g.Output()
	if out.Kind != "softmax" || out.OutShape[0] != 32 || out.OutShape[1] != 2 {
		t.Fatalf("output = %+v", out)
	}
}

func TestLowerRelationalConvUsesSpatialRewriting(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	m := nn.MustModel("c", []int{1, 8, 8, 3}, nn.NewConv2D(rng, 4, 1, 1, 3))
	rel, err := NewOptimizer(1).Plan(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Lower(rel)
	if err != nil {
		t.Fatal(err)
	}
	counts := g.Counts()
	if counts["im2col"] != 1 || counts["matmul"] != 1 || counts["reshape"] != 1 || counts["conv2d"] != 0 {
		t.Fatalf("relational conv lowering = %v", counts)
	}
	// im2col output: (batch·oh·ow, kh·kw·c) = (2·64, 3).
	for _, op := range g.Ops {
		if op.Kind == "im2col" {
			if op.OutShape[0] != 128 || op.OutShape[1] != 3 {
				t.Fatalf("im2col shape = %v", op.OutShape)
			}
		}
	}
	udf, err := NewOptimizer(1<<40).Plan(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Lower(udf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Counts()["conv2d"] != 1 || g2.Counts()["im2col"] != 0 {
		t.Fatalf("UDF conv lowering = %v", g2.Counts())
	}
}

func TestLowerDotRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	m := nn.Amazon14kFC(rng, 512)
	plan, err := NewOptimizer(4<<20).Plan(m, 1000)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Lower(plan)
	if err != nil {
		t.Fatal(err)
	}
	dot := g.Dot()
	for _, want := range []string{"digraph", "matmul", "style=dashed", "style=solid", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot missing %q:\n%s", want, dot)
		}
	}
}

func TestOffloadPolicyMarksIntensiveOps(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	// Encoder-FC's 76→3072 and 3072→768 linears are compute-intensive;
	// relu/softmax never offload.
	m := nn.EncoderFC(rng)
	rt := dlruntime.New(dlruntime.Graph, 0)
	opt := NewOptimizer(1 << 40)
	opt.Offload = &OffloadPolicy{Runtime: rt, MinFlopsPerByte: 50}
	plan, err := opt.Plan(m, 256)
	if err != nil {
		t.Fatal(err)
	}
	var offloaded, udfOnly int
	for _, d := range plan.Decisions {
		switch d.Repr {
		case ReprDLRuntime:
			offloaded++
			if d.Op == "relu" {
				t.Fatal("elementwise op offloaded")
			}
		case ReprUDF:
			udfOnly++
		}
	}
	if offloaded == 0 {
		t.Fatalf("no ops offloaded:\n%s", plan.Explain())
	}
	if udfOnly == 0 {
		t.Fatalf("everything offloaded:\n%s", plan.Explain())
	}
}

func TestOffloadRespectsRuntimeMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	m := nn.EncoderFC(rng)
	rt := dlruntime.New(dlruntime.Graph, 1024) // 1 KiB: nothing fits
	opt := NewOptimizer(1 << 40)
	opt.Offload = &OffloadPolicy{Runtime: rt, MinFlopsPerByte: 1}
	plan, err := opt.Plan(m, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.Decisions {
		if d.Repr == ReprDLRuntime {
			t.Fatalf("op offloaded beyond runtime memory:\n%s", plan.Explain())
		}
	}
}

func TestOffloadNeverUpgradesRelational(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	m := nn.Amazon14kFC(rng, 512)
	rt := dlruntime.New(dlruntime.Graph, 0)
	opt := NewOptimizer(1) // everything over threshold → relational
	opt.Offload = &OffloadPolicy{Runtime: rt, MinFlopsPerByte: 0}
	plan, err := opt.Plan(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.Decisions {
		if d.Repr == ReprDLRuntime {
			t.Fatal("relation-centric decision was offloaded")
		}
	}
}

func TestExecutorOffloadedSpanMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	m := nn.EncoderFC(rng) // linear, relu, linear
	rt := dlruntime.New(dlruntime.Eager, 0)
	rt.SetOverheads(dlruntime.Overheads{ActivationFactor: 1})
	opt := NewOptimizer(1 << 40)
	opt.Offload = &OffloadPolicy{Runtime: rt, MinFlopsPerByte: 50}
	plan, err := opt.Plan(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AllUDF() {
		t.Fatalf("test needs a mixed plan:\n%s", plan.Explain())
	}
	ex := NewExecutor(newPool(t, 32), nil)
	x := tensor.New(8, 76)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	res, err := ex.Run(plan, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(m.Forward(x.Clone()), 1e-4) {
		t.Fatal("offloaded execution differs from direct forward")
	}
}

func TestExecutorOffloadedSpanGroupsConsecutiveOps(t *testing.T) {
	// Two adjacent intensive linears with an offloadable relu between
	// them... relu never offloads, so the spans are [linear][relu][linear]:
	// verify correctness with interleaved representations either way.
	rng := rand.New(rand.NewSource(105))
	m := nn.MustModel("span", []int{1, 64},
		nn.NewLinear(rng, 64, 512), nn.ReLU{},
		nn.NewLinear(rng, 512, 512), nn.ReLU{},
		nn.NewLinear(rng, 512, 8),
	)
	rt := dlruntime.New(dlruntime.Graph, 0)
	rt.SetOverheads(dlruntime.Overheads{})
	opt := NewOptimizer(1 << 40)
	opt.Offload = &OffloadPolicy{Runtime: rt, MinFlopsPerByte: 20}
	plan, err := opt.Plan(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(newPool(t, 32), nil)
	x := tensor.New(16, 64)
	for i := range x.Data() {
		x.Data()[i] = float32(rng.NormFloat64())
	}
	res, err := ex.Run(plan, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(m.Forward(x.Clone()), 1e-3) {
		t.Fatal("mixed offloaded plan differs from direct forward")
	}
}

func TestExecutorOffloadWithoutRuntimeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	m := nn.FraudFC(rng, 16)
	plan, err := NewOptimizer(1<<40).Plan(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Forge a DL-centric decision with no runtime attached.
	plan.Decisions[0].Repr = ReprDLRuntime
	ex := NewExecutor(newPool(t, 8), nil)
	if _, err := ex.Run(plan, tensor.New(4, 28)); err == nil {
		t.Fatal("offload without a runtime must error")
	}
}

func TestAdaptiveUDFUsesAoTPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	m := nn.FraudFC(rng, 32)
	u := NewAdaptiveUDF(m, NewOptimizer(1<<30), newPool(t, 16), nil)
	if u.plans == nil {
		t.Fatal("AoT plan cache not built")
	}
	x := tensor.New(10, 28)
	if _, err := u.Apply(x); err != nil {
		t.Fatal(err)
	}
	hits, misses := u.plans.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("plan cache stats = %d/%d, want 1/0 (batch 10 served by the ladder)", hits, misses)
	}
	if u.Name() != "adaptive:Fraud-FC-32" {
		t.Fatalf("Name = %q", u.Name())
	}
	if u.Model() != m {
		t.Fatal("Model accessor wrong")
	}
	plan, err := u.Plan(100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Batch != 100 {
		t.Fatalf("Plan batch = %d", plan.Batch)
	}
}

func TestAdaptiveUDFRejectsWrongWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	m := nn.CacheCNN(rng, 8) // expects 8×8×1 images
	u := NewAdaptiveUDF(m, NewOptimizer(1<<30), newPool(t, 16), nil)
	if _, err := u.Apply(tensor.New(2, 63)); err == nil {
		t.Fatal("wrong flat width must error")
	}
	if _, err := u.Apply(tensor.New(2, 64)); err != nil {
		t.Fatalf("valid flat width rejected: %v", err)
	}
}
