package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tensorbase/internal/nn"
	"tensorbase/internal/table"
	"tensorbase/internal/tensor"
	"tensorbase/internal/testutil"
)

// slowLayer is an identity layer that sleeps per forward call, making query
// runtime deterministic regardless of host speed: a PREDICT over many
// batches is guaranteed to still be in flight when the test cancels it.
type slowLayer struct{ d time.Duration }

func (l slowLayer) Name() string                     { return "slowid" }
func (l slowLayer) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }
func (l slowLayer) MemEstimate(in []int) int64       { return 0 }
func (l slowLayer) ParamBytes() int64                { return 0 }
func (l slowLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	time.Sleep(l.d)
	return x
}

// panicLayer blows up on its first forward call.
type panicLayer struct{}

func (panicLayer) Name() string                     { return "panicop" }
func (panicLayer) OutShape(in []int) ([]int, error) { return append([]int(nil), in...), nil }
func (panicLayer) MemEstimate(in []int) int64       { return 0 }
func (panicLayer) ParamBytes() int64                { return 0 }
func (panicLayer) Forward(x *tensor.Tensor) *tensor.Tensor {
	panic("forward exploded")
}

// loadBig populates table "big" with n feature rows (width-8 vectors) and
// registers a slow identity model over them. Rows are inserted straight into
// the heap, reusing one tuple, so building a million-row table stays cheap.
func loadBig(t *testing.T, db *DB, n int, perBatch time.Duration) {
	t.Helper()
	h, err := db.CreateTable("big", table.MustSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "features", Type: table.FloatVec},
	))
	if err != nil {
		t.Fatal(err)
	}
	vec := make([]float32, 8)
	for i := 0; i < n; i++ {
		vec[0] = float32(i % 97)
		if _, err := h.Insert(table.Tuple{table.IntVal(int64(i)), table.VecVal(vec)}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := nn.NewModel("slow", []int{1, 8}, slowLayer{d: perBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(m, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPredictCancelMidFlight is the headline robustness contract: a PREDICT
// over a million rows, cancelled mid-flight, returns context.Canceled within
// a fraction of a second, leaves no pinned frames, no reserved memory, and
// no goroutines (scan producer, compute workers) behind.
func TestPredictCancelMidFlight(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	db := openDB(t, Options{})
	// ~3900 batches at 2ms of model time each: the query runs for seconds
	// unless cancellation stops it.
	loadBig(t, db, 1_000_000, 2*time.Millisecond)
	const q = "SELECT id, PREDICT(slow, features) FROM big"

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errCh := make(chan error, 1)
		go func() {
			_, err := db.QueryContext(ctx, q)
			errCh <- err
		}()
		time.Sleep(50 * time.Millisecond) // let it get well into the scan+model loop
		cancelAt := time.Now()
		cancel()
		select {
		case err := <-errCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query returned %v, want context.Canceled", err)
			}
			if took := time.Since(cancelAt); took > 250*time.Millisecond {
				t.Fatalf("cancellation took %v, want < 250ms", took)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("query ignored cancellation")
		}
		if got := db.Pool().Pinned(); got != 0 {
			t.Fatalf("pinned frames after cancelled query = %d, want 0", got)
		}
		if got := db.Budget().Reserved(); got != 0 {
			t.Fatalf("reserved bytes after cancelled query = %d, want 0", got)
		}
		// The database stays fully usable.
		res := mustExec(t, db, "SELECT id FROM big WHERE id < 3")
		if len(res.Rows) != 3 {
			t.Fatalf("follow-up query rows = %d", len(res.Rows))
		}
	})

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
		defer cancel()
		_, err := db.QueryContext(ctx, q)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("deadlined query returned %v, want context.DeadlineExceeded", err)
		}
		if got := db.Pool().Pinned(); got != 0 {
			t.Fatalf("pinned frames after deadlined query = %d, want 0", got)
		}
		if got := db.Budget().Reserved(); got != 0 {
			t.Fatalf("reserved bytes after deadlined query = %d, want 0", got)
		}
	})
}

// TestOptionsQueryTimeout: the engine-level deadline applies without any
// caller-provided context.
func TestOptionsQueryTimeout(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	db := openDB(t, Options{QueryTimeout: 20 * time.Millisecond})
	// 40 batches at 5ms each ≈ 200ms of model time, far past the timeout.
	loadBig(t, db, 10_000, 5*time.Millisecond)
	_, err := db.Query("SELECT id, PREDICT(slow, features) FROM big")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded from Options.QueryTimeout", err)
	}
	if got := db.Pool().Pinned(); got != 0 {
		t.Fatalf("pinned frames = %d, want 0", got)
	}
}

// TestPanicInForwardContainedPerQuery: a model whose forward pass panics
// fails only its own query; the panic is counted, and both plain SQL and
// PREDICT over a healthy model keep working on the same database.
func TestPanicInForwardContainedPerQuery(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	db := openDB(t, Options{InferBatch: 16})
	loadFraud(t, db, 40)
	bad, err := nn.NewModel("boom", []int{1, 28}, panicLayer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(bad, 0); err != nil {
		t.Fatal(err)
	}

	_, qerr := db.Exec("SELECT id, PREDICT(boom, features) FROM txns")
	if qerr == nil {
		t.Fatal("query over panicking model succeeded")
	}
	if !strings.Contains(qerr.Error(), "forward exploded") {
		t.Fatalf("query error %q does not carry the panic value", qerr)
	}
	if got := db.Stats().Panics; got < 1 {
		t.Fatalf("Stats().Panics = %d, want >= 1", got)
	}
	if got := db.Pool().Pinned(); got != 0 {
		t.Fatalf("pinned frames after panicked query = %d, want 0", got)
	}
	if got := db.Budget().Reserved(); got != 0 {
		t.Fatalf("reserved bytes after panicked query = %d, want 0", got)
	}

	// The next queries — plain and model-backed — succeed.
	res := mustExec(t, db, "SELECT id FROM txns WHERE id < 5")
	if len(res.Rows) != 5 {
		t.Fatalf("plain query rows = %d", len(res.Rows))
	}
	res = mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	if len(res.Rows) != 40 {
		t.Fatalf("healthy PREDICT rows = %d", len(res.Rows))
	}
}

// TestInsertCancelled: DML honours the context too.
func TestInsertCancelled(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, "INSERT INTO t VALUES (1), (2), (3)")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestQueryPanicCountsAndDBSurvives exercises the query-level recover (above
// the UDF layer) via a model registered directly against the UDF registry
// boundary: a panicking layer reached through the serial path (no compute
// token free, so no producer goroutine) still converts to an error.
func TestQueryPanicSerialPath(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	drainComputeBudget(t)
	db := openDB(t, Options{InferBatch: 16})
	loadFraud(t, db, 30)
	bad, err := nn.NewModel("boom2", []int{1, 28}, panicLayer{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(bad, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT PREDICT(boom2, features) FROM txns"); err == nil {
		t.Fatal("serial-path panic not surfaced")
	}
	if got := db.Stats().Panics; got < 1 {
		t.Fatalf("Stats().Panics = %d, want >= 1", got)
	}
	res := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	if len(res.Rows) != 30 {
		t.Fatalf("healthy PREDICT rows = %d", len(res.Rows))
	}
	if note := predictNote(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"); note != "serial" {
		t.Fatalf("predict note %q, want serial", note)
	}
}
