package engine

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tensorbase/internal/data"
	"tensorbase/internal/nn"
	"tensorbase/internal/testutil"
	"tensorbase/internal/udf"
)

// Serial PREDICTs reuse one forward-pass workspace per serving mode: three
// f32 queries build one, three quantized ones build one more, and
// /metrics reports the process-wide count.
func TestPredictReusesWorkspaces(t *testing.T) {
	drainComputeBudget(t)
	db := openDB(t, Options{InferBatch: 16})
	loadFraud(t, db, 100)
	before := udf.WorkspacesBuilt()
	for _, q := range []string{
		"SELECT id, PREDICT(Fraud-FC-32, features) FROM txns",
		"SELECT id, PREDICT(Fraud-FC-32, features) OPTIONS (quantized) FROM txns",
	} {
		for i := 0; i < 3; i++ {
			mustExec(t, db, q)
		}
	}
	if got := udf.WorkspacesBuilt() - before; got != 2 {
		t.Fatalf("6 serial PREDICTs over two serving modes built %d workspaces, want 2", got)
	}
	var buf bytes.Buffer
	if err := db.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ntensorbase_predict_workspaces_total ") {
		t.Fatal("/metrics has no tensorbase_predict_workspaces_total")
	}
}

// A serial PREDICT of Fraud-FC-1024 over 256 rows in 32-row batches
// computes 1 MiB of hidden activations and allocates under a quarter of
// that in all — the BenchmarkPredictServing/serial_nocache statement, as a
// bound: the activations live in the model's workspace.
func TestPredictAllocatesNoActivations(t *testing.T) {
	if testutil.Race {
		t.Skip("the race detector drops pooled scratch at random")
	}
	drainComputeBudget(t)
	const rows, hidden = 256, 1024
	db := openDB(t, Options{InferBatch: 32})
	d := data.Fraud(11, rows)
	tuples, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("txns", tuples); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(nn.FraudFC(rand.New(rand.NewSource(12)), hidden), 0); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, PREDICT(Fraud-FC-1024, features) FROM txns"
	mustExec(t, db, q)
	best := ^uint64(0)
	for try := 0; try < 3; try++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			mustExec(t, db, q)
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.TotalAlloc-before.TotalAlloc)/10)
	}
	const activations = rows * hidden * 4
	if best >= activations/4 {
		t.Fatalf("a serial PREDICT allocated %d bytes; its hidden activations alone are %d", best, activations)
	}
}
