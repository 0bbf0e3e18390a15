package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"tensorbase/internal/data"
	"tensorbase/internal/nn"
)

// TestPredictQuantizedAccuracyGate is the accuracy-delta gate for quantized
// serving: predictions from the int8-resident twin must stay within a fixed
// epsilon of the f32 path element-wise, and agree with it on the top class
// for at least 99% of the demo table's rows. A quantization or kernel
// regression that shifts predictions materially fails here, not in
// production.
func TestPredictQuantizedAccuracyGate(t *testing.T) {
	db := openDB(t, Options{InferBatch: 32})
	loadFraud(t, db, 200)
	f32 := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	q8 := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns")
	if len(q8.Rows) != len(f32.Rows) {
		t.Fatalf("quantized %d rows, f32 %d", len(q8.Rows), len(f32.Rows))
	}
	const epsilon = 0.05
	agree := 0
	for i := range f32.Rows {
		a, b := f32.Rows[i][1].Vec, q8.Rows[i][1].Vec
		if len(a) != len(b) {
			t.Fatalf("row %d: widths %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if d := math.Abs(float64(a[j] - b[j])); d > epsilon {
				t.Fatalf("row %d class %d: f32 %v vs quantized %v (|Δ| %.4f > %.2f)",
					i, j, a[j], b[j], d, epsilon)
			}
		}
		if argmax32(a) == argmax32(b) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(f32.Rows)); frac < 0.99 {
		t.Fatalf("top-class agreement %.3f, want >= 0.99", frac)
	}
}

func argmax32(v []float32) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// TestPredictQuantizedBitIdenticalAcrossModes: per-row activation scales
// make quantized outputs a function of each row alone, so serial, pipelined,
// and cached executions must produce bit-identical predictions.
func TestPredictQuantizedBitIdenticalAcrossModes(t *testing.T) {
	const q = "SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns"
	run := func(opts Options, wantMode string) [][]float32 {
		opts.InferBatch = 16
		db := openDB(t, opts)
		loadFraud(t, db, 150)
		res := mustExec(t, db, q)
		if note := predictNote(t, db, q); !strings.HasPrefix(note, wantMode) {
			t.Fatalf("predict note %q, want mode %s", note, wantMode)
		}
		out := make([][]float32, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[1].Vec
		}
		return out
	}
	pipelined := run(Options{}, "pipelined")
	cached := run(Options{ResultCache: true}, "pipelined")
	drainComputeBudget(t)
	serial := run(Options{}, "serial")
	for name, got := range map[string][][]float32{"pipelined": pipelined, "cached": cached} {
		if len(got) != len(serial) {
			t.Fatalf("%s: %d rows vs %d", name, len(got), len(serial))
		}
		for i := range serial {
			for j := range serial[i] {
				if math.Float32bits(got[i][j]) != math.Float32bits(serial[i][j]) {
					t.Fatalf("%s row %d[%d]: %x vs serial %x (must be bit-identical)",
						name, i, j, math.Float32bits(got[i][j]), math.Float32bits(serial[i][j]))
				}
			}
		}
	}
}

// TestPredictQuantizedCacheIsolation: the quantized mode must never serve
// results cached by the f32 mode (and vice versa) — their outputs differ in
// bits, keyed apart by the mode-specific cache key.
func TestPredictQuantizedCacheIsolation(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true})
	loadFraud(t, db, 50)
	f32a := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	// Repeat f32 so its cache is warm, then ask quantized: every quantized
	// row must be a miss on its own cache, not a hit on the f32 one.
	mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	misses := db.Stats().CacheMisses
	q8 := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns")
	if got := db.Stats().CacheMisses - misses; got != 50 {
		t.Fatalf("quantized run had %d cache misses, want 50 (own cache, cold)", got)
	}
	identical := true
	for i := range f32a.Rows {
		for j := range f32a.Rows[i][0].Vec {
			if math.Float32bits(f32a.Rows[i][0].Vec[j]) != math.Float32bits(q8.Rows[i][0].Vec[j]) {
				identical = false
			}
		}
	}
	if identical {
		t.Fatal("quantized output bit-identical to f32 across the whole table — suspicious (cache bleed?)")
	}
}

// TestPredictQuantizedNonFiniteWeight: a model with a NaN or ±Inf weight
// has no int8 twin, so OPTIONS (quantized) over it is the "has no quantized
// twin" statement error (a 400 over HTTP), while its f32 PREDICT still
// answers exactly what the model's own forward pass does.
func TestPredictQuantizedNonFiniteWeight(t *testing.T) {
	d := data.Fraud(1, 20)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		db := openDB(t, Options{InferBatch: 8})
		if _, err := db.CreateTable("txns", schema); err != nil {
			t.Fatal(err)
		}
		if _, err := db.InsertRows("txns", rows); err != nil {
			t.Fatal(err)
		}
		m := nn.FraudFC(rand.New(rand.NewSource(2)), 32)
		m.Layers[0].(*nn.Linear).W.Set(bad, 3, 5)
		if err := db.LoadModel(m, 0.95); err != nil {
			t.Fatal(err)
		}
		_, err := db.Exec("SELECT PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns")
		if err == nil || !strings.Contains(err.Error(), "has no quantized twin") {
			t.Fatalf("weight %v: quantized PREDICT error = %v, want no quantized twin", bad, err)
		}
		want := m.Forward(d.X.Clone())
		res := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
		for _, r := range res.Rows {
			for j, got := range r[1].Vec {
				w := want.At(int(r[0].Int), j)
				if math.Float32bits(got) != math.Float32bits(w) && !(got != got && w != w) {
					t.Fatalf("weight %v: row %d[%d] = %v, want the model's %v", bad, r[0].Int, j, got, w)
				}
			}
		}
	}
}

func TestPredictQuantizedEngineDefault(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, PredictQuantized: true})
	loadFraud(t, db, 30)
	base := db.Metrics().Counter("tensorbase_predict_quantized_total")
	res := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	if len(res.Rows) != 30 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := db.Metrics().Counter("tensorbase_predict_quantized_total") - base; got != 1 {
		t.Fatalf("tensorbase_predict_quantized_total rose by %d, want 1", got)
	}
}

func TestPredictQuantizedErrors(t *testing.T) {
	db := openDB(t, Options{})
	loadFraud(t, db, 10)
	if _, err := db.Exec("SELECT PREDICT(ghost, features) OPTIONS (quantized) FROM txns"); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := db.Exec("SELECT PREDICT(Fraud-FC-32, features) OPTIONS (turbo) FROM txns"); err == nil {
		t.Fatal("unknown PREDICT option must error")
	}
}
