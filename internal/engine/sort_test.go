package engine

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tensorbase/internal/exec"
	"tensorbase/internal/fault"
	"tensorbase/internal/parallel"
	"tensorbase/internal/table"
	"tensorbase/internal/testutil"
)

// livePages reads the tensorbase_disk_pages gauge: allocated minus free.
func livePages(db *DB) float64 { return db.Metrics().Gauge("tensorbase_disk_pages") }

// stage returns the profile stage named name, or fails.
func stage(t *testing.T, stats []exec.StageStat, name string) exec.StageStat {
	t.Helper()
	for _, s := range stats {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("profile has no %q stage: %+v", name, stats)
	return exec.StageStat{}
}

// An ORDER BY that spills hands its runs back: N of them leave the page
// count exactly where it was, and so does a reopen afterwards.
func TestOrderBySpillFreesPages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.db")
	db, err := Open(path, Options{InferBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	// 1500 rows > the sort's 1024-row run budget: every statement spills.
	loadFraud(t, db, 1500)
	const q = "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns ORDER BY id"
	before := livePages(db)
	for i := 0; i < 20; i++ {
		mustExec(t, db, q)
	}
	res, stats, err := db.ExecProfiled(q)
	if err != nil {
		t.Fatal(err)
	}
	if s := stage(t, stats, "sort"); s.SpillRuns != 2 {
		t.Fatalf("sort spilled %d runs, want 2", s.SpillRuns)
	}
	for i, row := range res.Rows {
		if row[0].Int != int64(i) {
			t.Fatalf("row %d has id %d", i, row[0].Int)
		}
	}
	if got := livePages(db); got != before {
		t.Fatalf("tensorbase_disk_pages = %v after 21 spilling sorts, want %v", got, before)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path, Options{InferBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	db = reopened
	if got := livePages(db); got != before {
		t.Fatalf("tensorbase_disk_pages = %v after reopen, want %v", got, before)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, db, q)
	}
	if got := livePages(db); got != before {
		t.Fatalf("tensorbase_disk_pages = %v after sorts on the reopened db, want %v", got, before)
	}
}

// A sort that spills and frees its runs while a checkpoint records the
// catalog leaves that checkpoint consistent: recovery frees every page past
// the recorded file length, so a recorded free page there would be freed
// twice and the database would not reopen. The sort runs inside the
// checkpoint's chain walk, at its first page read.
func TestCheckpointDuringSpillReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.db")
	// 8 frames: the walk over txns' chain reads pages from disk.
	opts := Options{InferBatch: 64, BufferFrames: 8}
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { db.Close() }()
	loadFraud(t, db, 4000)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	schema := table.MustSchema(table.Column{Name: "id", Type: table.Int64})
	var in []table.Tuple
	for i := 0; i < 64; i++ {
		in = append(in, table.Tuple{table.IntVal(int64(63 - i))})
	}
	inj := fault.New()
	var spilled int64
	inj.Do("disk.read", func() {
		if spilled != 0 {
			return
		}
		srt, err := exec.NewSort(exec.NewMemScan(schema, in), "id", false, -1, db.pool)
		if err != nil {
			t.Error(err)
			return
		}
		srt.RunRows = 16
		if _, err := exec.Collect(srt); err != nil {
			t.Error(err)
		}
		var st exec.StageStat
		srt.ReportStage(&st)
		spilled = st.SpillRuns
	})
	db.disk.SetFaults(inj)
	err = db.Checkpoint()
	db.disk.SetFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 4 {
		t.Fatalf("the sort inside the checkpoint spilled %d runs, want 4", spilled)
	}
	// A committed insert after the checkpoint makes the reopen replay the
	// log, which frees the pages past the checkpoint.
	mustExec(t, db, "INSERT INTO txns VALUES (4000, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0)")
	live := livePages(db)
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	db = reopened
	if got := mustExec(t, db, "SELECT COUNT(*) FROM txns").Rows[0][0].Int; got != 4001 {
		t.Fatalf("COUNT(*) = %d after the reopen, want 4001", got)
	}
	if got := livePages(db); got != live {
		t.Fatalf("tensorbase_disk_pages = %v after the reopen, want %v", got, live)
	}
}

// A shard_mix scatter leg, ORDER BY … LIMIT 512 over a shard's 1024 rows,
// runs as a top-k: it writes no page, and EXPLAIN ANALYZE names the topk
// stage with no spill.
func TestOrderByLimitIsTopK(t *testing.T) {
	db := openDB(t, Options{InferBatch: 64})
	loadFraud(t, db, 1024)
	const q = "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns ORDER BY id LIMIT 512"
	full := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns ORDER BY id")
	before := livePages(db)
	for i := 0; i < 200; i++ {
		res := mustExec(t, db, q)
		if len(res.Rows) != 512 {
			t.Fatalf("rows = %d, want 512", len(res.Rows))
		}
		for j, row := range res.Rows {
			if !reflect.DeepEqual(row, full.Rows[j]) {
				t.Fatalf("run %d row %d = %v, want %v", i, j, row, full.Rows[j])
			}
		}
	}
	if got := livePages(db); got != before {
		t.Fatalf("tensorbase_disk_pages = %v after 200 top-k statements, want %v", got, before)
	}
	_, stats, err := db.ExecProfiled(q)
	if err != nil {
		t.Fatal(err)
	}
	s := stage(t, stats, "topk")
	if s.Rows != 512 || s.SpillRuns != 0 || s.SpillBytes != 0 {
		t.Fatalf("topk stage rows=%d spill runs=%d bytes=%d, want 512 rows and no spill", s.Rows, s.SpillRuns, s.SpillBytes)
	}
	for _, s := range stats {
		if s.Name == "sort" {
			t.Fatalf("a top-k statement profiled a sort stage: %+v", stats)
		}
	}
}

// An ORDER BY over PREDICT that times out mid-drain closes the PREDICT
// below it: no producer goroutine and no compute token outlive the query.
func TestOrderByCancelReleasesPredict(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	db := openDB(t, Options{})
	loadBig(t, db, 50_000, 2*time.Millisecond)
	inUse := parallel.Default().InUse()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	if _, err := db.QueryContext(ctx, "SELECT id, PREDICT(slow, features) FROM big ORDER BY id"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := parallel.Default().InUse(); got != inUse {
		t.Fatalf("compute tokens in use = %d after the cancelled ORDER BY, want %d", got, inUse)
	}
}
