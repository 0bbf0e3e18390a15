package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tensorbase/internal/fault"
	"tensorbase/internal/table"
)

// TestConcurrentInsertSelectPredict hammers one table with concurrent
// INSERT, SELECT, and PREDICT statements. Under the statement lock manager
// every statement must complete without error; run with -race this is the
// regression for "DB is safe for concurrent use".
func TestConcurrentInsertSelectPredict(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16})
	_, d := loadFraud(t, db, 64)
	rows, _, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}

	const iters = 25
	var wg sync.WaitGroup
	fail := make(chan error, 64)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	// Writers re-insert existing feature rows (exclusive table lock).
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.InsertRows("txns", rows[w*4:w*4+4]); err != nil {
					report(fmt.Errorf("insert: %w", err))
					return
				}
			}
		}(w)
	}
	// Readers scan (shared lock).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.Exec("SELECT id FROM txns WHERE id >= 0 LIMIT 10"); err != nil {
					report(fmt.Errorf("select: %w", err))
					return
				}
			}
		}()
	}
	// PREDICT queries (shared lock, model invocations).
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/5; i++ {
				if _, err := db.Exec("SELECT id, PREDICT(Fraud-FC-32, features) FROM txns LIMIT 32"); err != nil {
					report(fmt.Errorf("predict: %w", err))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if got := db.locks.Stats().Acquired; got == 0 {
		t.Fatal("lock manager saw no acquisitions")
	}
}

// TestConcurrentDDLVsScans runs CREATE/DROP cycles against in-flight scans
// of the churning table and of a stable one. Scans of the churning table
// may cleanly fail with "no table" (it is mid-drop) but must never observe
// corruption, and the stable table's scans must always succeed.
func TestConcurrentDDLVsScans(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE stable (a INT)")
	mustExec(t, db, "INSERT INTO stable VALUES (1), (2), (3)")

	const cycles = 30
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	firstErr := make(chan error, 1)
	report := func(err error) {
		unexpected.Add(1)
		select {
		case firstErr <- err:
		default:
		}
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < cycles; i++ {
			if _, err := db.Exec("CREATE TABLE churn (a INT, b TEXT)"); err != nil {
				report(fmt.Errorf("create: %w", err))
				return
			}
			if _, err := db.Exec("INSERT INTO churn VALUES (1, 'x'), (2, 'y')"); err != nil {
				report(fmt.Errorf("insert: %w", err))
				return
			}
			if _, err := db.Exec("DROP TABLE churn"); err != nil {
				report(fmt.Errorf("drop: %w", err))
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles*3; i++ {
				res, err := db.Exec("SELECT a FROM stable")
				if err != nil {
					report(fmt.Errorf("stable scan: %w", err))
					return
				}
				if len(res.Rows) != 3 {
					report(fmt.Errorf("stable scan saw %d rows", len(res.Rows)))
					return
				}
				if _, err := db.Exec("SELECT b FROM churn"); err != nil &&
					!strings.Contains(err.Error(), "no table") {
					report(fmt.Errorf("churn scan: unexpected error %w", err))
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Fatalf("%d unexpected failures; first: %v", n, <-firstErr)
	}
}

// TestDropReclaimsPages is the page-leak regression: repeated create/fill/
// drop cycles must not grow the database file, because DROP hands the heap
// chain to the free list and new heaps reuse it.
func TestDropReclaimsPages(t *testing.T) {
	db := openDB(t, Options{})
	fill := func() {
		mustExec(t, db, "CREATE TABLE big (a INT, s TEXT)")
		// Enough rows to span several pages.
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		pad := strings.Repeat("x", 512)
		for i := 0; i < 400; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", i, pad)
		}
		mustExec(t, db, sb.String())
		mustExec(t, db, "DROP TABLE big")
	}
	fill()
	base := db.disk.NumPages()
	for i := 0; i < 5; i++ {
		fill()
	}
	if got := db.disk.NumPages(); got != base {
		t.Fatalf("file grew from %d to %d pages across drop/create cycles", base, got)
	}
	frees, reuses, _ := db.disk.FreeStats()
	if frees == 0 || reuses == 0 {
		t.Fatalf("FreeStats = (%d frees, %d reuses), want both > 0", frees, reuses)
	}
}

// readMetaGeneration parses the committed meta file's generation.
func readMetaGeneration(t *testing.T, path string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(path + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	return meta.Generation
}

// TestCloseFlushBeforeCatalogCommit is the durability-ordering regression:
// if flushing dirty pages fails, Close must NOT commit a new catalog
// generation — the old engine committed first and could leave a catalog
// naming page contents that never reached disk.
func TestCloseFlushBeforeCatalogCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	gen := readMetaGeneration(t, path)

	// Reopen, dirty a page, and make the flush fail.
	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	inj := fault.New()
	boom := errors.New("boom")
	inj.FailAt("disk.write", boom, 1)
	db.disk.SetFaults(inj)
	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close with failing flush = %v, want injected fault", err)
	}
	if got := readMetaGeneration(t, path); got != gen {
		t.Fatalf("catalog generation advanced to %d despite failed flush (was %d): commit ran before flush", got, gen)
	}

	// The database reopens on the previous committed catalog PLUS the WAL:
	// the third row's INSERT committed through the log before the crashed
	// close, so recovery replays it even though the flush never happened.
	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res := mustExec(t, db, "SELECT a FROM t")
	if len(res.Rows) != 3 {
		t.Fatalf("reopened table has %d rows, want all 3 committed rows (2 checkpointed + 1 replayed)", len(res.Rows))
	}
}

// TestFreeListSurvivesReopen: pages freed by DROP must still be reusable
// after a clean Close/Open cycle (the free list is committed in the meta).
func TestFreeListSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE keep (a INT)")
	mustExec(t, db, "INSERT INTO keep VALUES (1)")
	mustExec(t, db, "CREATE TABLE gone (a INT)")
	mustExec(t, db, "DROP TABLE gone")
	_, _, freeBefore := db.disk.FreeStats()
	if freeBefore == 0 {
		t.Fatal("drop freed no pages")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, _, freeAfter := db.disk.FreeStats()
	if freeAfter != freeBefore {
		t.Fatalf("free list after reopen = %d pages, want %d", freeAfter, freeBefore)
	}
	pages := db.disk.NumPages()
	mustExec(t, db, "CREATE TABLE reborn (a INT)")
	if got := db.disk.NumPages(); got != pages {
		t.Fatalf("new table grew the file (%d → %d) with %d free pages available", pages, got, freeAfter)
	}
	res := mustExec(t, db, "SELECT a FROM keep")
	if len(res.Rows) != 1 {
		t.Fatalf("surviving table has %d rows", len(res.Rows))
	}
}

// TestConcurrentPredictScans: concurrent full-table PREDICT scans over one
// model each run their own micro-batches and return rows bit-identical to
// a solo scan. Every query pays exactly ⌈rows / InferBatch⌉ model
// invocations, whatever else is in flight.
func TestConcurrentPredictScans(t *testing.T) {
	const rows, batch, queries = 2048, 64, 4
	const q = "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"
	db := openDB(t, Options{InferBatch: batch})
	loadFraud(t, db, rows)
	solo := mustExec(t, db, q).Rows
	if len(solo) != rows {
		t.Fatalf("solo scan returned %d rows, want %d", len(solo), rows)
	}

	calls := func() int64 { return db.Metrics().Counter("tensorbase_predict_udf_calls_total") }
	before := calls()
	var wg sync.WaitGroup
	results := make([][]table.Tuple, queries)
	errs := make([]error, queries)
	start := make(chan struct{})
	for i := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := db.Exec(q)
			if err == nil {
				results[i] = res.Rows
			}
			errs[i] = err
		}()
	}
	close(start)
	wg.Wait()

	for i, got := range results {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if len(got) != rows {
			t.Fatalf("query %d returned %d rows, want %d", i, len(got), rows)
		}
		for r := range solo {
			if got[r][0].Int != solo[r][0].Int {
				t.Fatalf("query %d row %d: id %d, solo scan has %d", i, r, got[r][0].Int, solo[r][0].Int)
			}
			want, have := solo[r][1].Vec, got[r][1].Vec
			if len(have) != len(want) {
				t.Fatalf("query %d row %d: prediction width %d vs %d", i, r, len(have), len(want))
			}
			for j := range want {
				if math.Float32bits(have[j]) != math.Float32bits(want[j]) {
					t.Fatalf("query %d row %d[%d]: %x vs solo %x (must be bit-identical)",
						i, r, j, math.Float32bits(have[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
	if got, want := calls()-before, int64(queries*((rows+batch-1)/batch)); got != want {
		t.Fatalf("tensorbase_predict_udf_calls_total rose by %d over %d concurrent scans, want exactly %d", got, queries, want)
	}
}
