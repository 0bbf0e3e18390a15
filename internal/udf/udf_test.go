package udf

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"tensorbase/internal/exec"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
)

func TestModelUDFMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := nn.FraudFC(rng, 32)
	u := NewModelUDF(m, nil)
	x := tensor.New(4, 28)
	for i := range x.Data() {
		x.Data()[i] = rng.Float32()
	}
	got, err := u.Apply(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(m.Forward(x.Clone()), 1e-6) {
		t.Fatal("model UDF differs from forward")
	}
	if u.Name() != "model:Fraud-FC-32" {
		t.Fatalf("Name = %q", u.Name())
	}
}

func TestModelUDFReservesAndReleasesPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := nn.FraudFC(rng, 32)
	b := memlimit.NewBudget(1 << 30)
	u := NewModelUDF(m, b)
	if _, err := u.Apply(tensor.New(8, 28)); err != nil {
		t.Fatal(err)
	}
	if b.Reserved() != 0 {
		t.Fatalf("leaked %d bytes", b.Reserved())
	}
	peak, err := m.MaxOpBytes(8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Peak() != peak {
		t.Fatalf("peak %d, want %d", b.Peak(), peak)
	}
}

func TestModelUDFOOM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := nn.FraudFC(rng, 512)
	u := NewModelUDF(m, memlimit.NewBudget(1024))
	if _, err := u.Apply(tensor.New(100, 28)); !errors.Is(err, memlimit.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestOperatorUDF(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lin := nn.NewLinear(rng, 8, 4)
	u := NewOperatorUDF(lin, 0, "m", nil)
	x := tensor.New(2, 8)
	got, err := u.Apply(x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !got.AlmostEqual(lin.Forward(x.Clone()), 1e-6) {
		t.Fatal("operator UDF differs from layer forward")
	}
	if u.Name() != "op:m[0]:linear" {
		t.Fatalf("Name = %q", u.Name())
	}
}

func TestRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := NewRegistry()
	u := NewModelUDF(nn.FraudFC(rng, 16), nil)
	if err := r.Register(u); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(u); err == nil {
		t.Fatal("duplicate registration must error")
	}
	got, ok := r.Lookup(u.Name())
	if !ok || got != UDF(u) {
		t.Fatal("lookup failed")
	}
	if _, ok := r.Lookup("ghost"); ok {
		t.Fatal("ghost lookup must fail")
	}
	if len(r.Names()) != 1 {
		t.Fatalf("Names = %v", r.Names())
	}
}

func featRows(rng *rand.Rand, n, width int) []table.Tuple {
	rows := make([]table.Tuple, n)
	for i := range rows {
		vec := make([]float32, width)
		for j := range vec {
			vec[j] = rng.Float32()
		}
		rows[i] = table.Tuple{table.IntVal(int64(i)), table.VecVal(vec)}
	}
	return rows
}

func featSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "features", Type: table.FloatVec},
	)
}

func TestInferOpAppendsPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 23, 28) // not a batch multiple
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 23 {
		t.Fatalf("got %d rows", len(got))
	}
	for i, r := range got {
		if r[0].Int != int64(i) {
			t.Fatalf("row order broken at %d", i)
		}
		pred := r[len(r)-1].Vec
		if len(pred) != 2 {
			t.Fatalf("prediction width %d", len(pred))
		}
		// Must match a direct single-row forward.
		x := tensor.FromSlice(append([]float32(nil), rows[i][1].Vec...), 1, 28)
		want := m.Forward(x)
		if abs32(pred[0]-want.At(0, 0)) > 1e-5 {
			t.Fatalf("row %d prediction %v, want %v", i, pred, want.Data())
		}
	}
	if op.Schema().ColIndex("prediction") < 0 {
		t.Fatal("schema missing prediction column")
	}
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestInferOpValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := nn.FraudFC(rng, 16)
	u := NewModelUDF(m, nil)
	if _, err := NewInferOp(exec.NewMemScan(featSchema(), nil), u, "ghost", 8); err == nil {
		t.Fatal("unknown feature column must error")
	}
	if _, err := NewInferOp(exec.NewMemScan(featSchema(), nil), u, "id", 8); err == nil {
		t.Fatal("non-vector feature column must error")
	}
	if _, err := NewInferOp(exec.NewMemScan(featSchema(), nil), u, "features", 0); err == nil {
		t.Fatal("batch 0 must error")
	}
	stored := table.MustSchema(table.Column{Name: "prediction", Type: table.Float64}, table.Column{Name: "features", Type: table.FloatVec})
	if _, err := NewInferOp(exec.NewMemScan(stored, nil), u, "features", 8); err == nil || !strings.Contains(err.Error(), `duplicate column "prediction"`) {
		t.Fatalf("input with its own prediction column: err = %v, want the duplicate refused", err)
	}
}

func TestInferOpRaggedFeaturesError(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := nn.FraudFC(rng, 16)
	rows := []table.Tuple{
		{table.IntVal(0), table.VecVal(make([]float32, 28))},
		{table.IntVal(1), table.VecVal(make([]float32, 5))},
	}
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op); err == nil {
		t.Fatal("ragged feature vectors must error")
	}
}

func TestInferOpEmptyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := nn.FraudFC(rng, 16)
	op, err := NewInferOp(exec.NewMemScan(featSchema(), nil), NewModelUDF(m, nil), "features", 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d rows from empty input", len(got))
	}
}

func TestInferOpPropagatesOOM(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := nn.FraudFC(rng, 512)
	rows := featRows(rng, 50, 28)
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, memlimit.NewBudget(1024)), "features", 50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op); !errors.Is(err, memlimit.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestOperatorUDFOOM(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lin := nn.NewLinear(rng, 512, 512)
	u := NewOperatorUDF(lin, 0, "m", memlimit.NewBudget(1024))
	if _, err := u.Apply(tensor.New(64, 512)); !errors.Is(err, memlimit.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestInferOpReopenable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := nn.FraudFC(rng, 16)
	rows := featRows(rng, 10, 28)
	op, err := NewInferOp(exec.NewMemScan(featSchema(), rows), NewModelUDF(m, nil), "features", 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 10 {
			t.Fatalf("round %d: %d rows", round, len(got))
		}
	}
}
