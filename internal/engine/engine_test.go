package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tensorbase/internal/data"
	"tensorbase/internal/dlruntime"
	"tensorbase/internal/exec"
	"tensorbase/internal/memlimit"
	"tensorbase/internal/nn"
	"tensorbase/internal/parallel"
	"tensorbase/internal/table"
)

func openDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "e.db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// drainComputeBudget installs an exhausted process-wide compute budget for
// the rest of the test, so PREDICT takes InferOp's serial fallback exactly
// as it does in production when every worker token is held.
func drainComputeBudget(t *testing.T) {
	t.Helper()
	drained := parallel.NewBudget(1)
	drained.Acquire(1)
	prev := parallel.SetDefault(drained)
	t.Cleanup(func() { parallel.SetDefault(prev) })
}

// predictNote runs q under EXPLAIN ANALYZE and returns the predict stage's
// note, which names the mode that ran ("serial" or "pipelined …").
func predictNote(t *testing.T, db *DB, q string) string {
	t.Helper()
	_, stats, err := db.ExecProfiled(q)
	if err != nil {
		t.Fatalf("ExecProfiled(%q): %v", q, err)
	}
	for _, s := range stats {
		if s.Name == "predict" {
			return s.Note
		}
	}
	t.Fatalf("no predict stage in profile of %q", q)
	return ""
}

func TestCreateInsertSelectRoundTrip(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE txns (id INT, amount DOUBLE, who TEXT)")
	res := mustExec(t, db, "INSERT INTO txns VALUES (1, 10.5, 'alice'), (2, 200, 'bob'), (3, 3.25, 'carol')")
	if res.RowsAffected != 3 {
		t.Fatalf("inserted %d", res.RowsAffected)
	}
	res = mustExec(t, db, "SELECT who, amount FROM txns WHERE amount > 5 LIMIT 10")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "alice" || res.Rows[1][0].Str != "bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Schema.Cols[0].Name != "who" {
		t.Fatalf("schema = %+v", res.Schema.Cols)
	}
}

func TestSelectStar(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x')")
	res := mustExec(t, db, "SELECT * FROM t")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := db.Exec("SELECT *, a FROM t"); err == nil {
		t.Fatal("star combined with columns must error")
	}
}

func TestWhereOperatorsAndCoercion(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT a FROM t WHERE a = 2", 1},
		{"SELECT a FROM t WHERE a != 2", 2},
		{"SELECT a FROM t WHERE a < 2", 1},
		{"SELECT a FROM t WHERE a <= 2", 2},
		{"SELECT a FROM t WHERE a > 2", 1},
		{"SELECT a FROM t WHERE a >= 2", 2},
		{"SELECT a FROM t WHERE a > 1.5", 2}, // float literal on INT column
	}
	for _, c := range cases {
		res := mustExec(t, db, c.sql)
		if len(res.Rows) != c.want {
			t.Fatalf("%s → %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT, b DOUBLE)")
	if _, err := db.Exec("INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := db.Exec("INSERT INTO t VALUES ('x', 1)"); err == nil {
		t.Fatal("type mismatch must error")
	}
	// INT → DOUBLE coercion is allowed.
	mustExec(t, db, "INSERT INTO t VALUES (1, 2)")
	if _, err := db.Exec("INSERT INTO ghost VALUES (1)"); err == nil {
		t.Fatal("missing table must error")
	}
}

func TestDDLErrors(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err == nil {
		t.Fatal("duplicate table must error")
	}
	if _, err := db.Exec("SELECT a FROM ghost"); err == nil {
		t.Fatal("select from missing table must error")
	}
	if _, err := db.Exec("SELECT ghost FROM t"); err == nil {
		t.Fatal("unknown projection column must error")
	}
	if _, err := db.Exec("SELECT a FROM t WHERE ghost = 1"); err == nil {
		t.Fatal("unknown where column must error")
	}
}

// loadFraud populates a fraud feature table and a trained model.
func loadFraud(t *testing.T, db *DB, n int) (*nn.Model, *data.Classified) {
	t.Helper()
	d := data.Fraud(1, n)
	rows, schema, err := d.FeatureRows()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("txns", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("txns", rows); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	m := nn.FraudFC(rng, 32)
	if _, err := nn.Train(m, d.X, d.Labels, nn.TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(m, 0.95); err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestPredictInQuery(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16})
	m, d := loadFraud(t, db, 100)
	res := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	if len(res.Rows) != 100 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Predictions must match direct model inference.
	direct, err := m.Predict(d.X.Clone())
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, r := range res.Rows {
		pred := r[1].Vec
		if len(pred) != 2 {
			t.Fatalf("prediction width %d", len(pred))
		}
		cls := 0
		if pred[1] > pred[0] {
			cls = 1
		}
		if cls == direct[i] {
			agree++
		}
	}
	if agree != 100 {
		t.Fatalf("only %d/100 predictions agree with direct inference", agree)
	}
}

func TestPredictWithWhereAndLimit(t *testing.T) {
	db := openDB(t, Options{InferBatch: 8})
	loadFraud(t, db, 60)
	res := mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns WHERE id < 10 LIMIT 5")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Int >= 10 {
			t.Fatalf("filter leaked row %v", r)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	db := openDB(t, Options{})
	loadFraud(t, db, 10)
	if _, err := db.Exec("SELECT PREDICT(ghost, features) FROM txns"); err == nil {
		t.Fatal("unloaded model must error")
	}
	if _, err := db.Exec("SELECT PREDICT(Fraud-FC-32, id) FROM txns"); err == nil {
		t.Fatal("non-vector feature column must error")
	}
	if _, err := db.Exec("SELECT PREDICT(Fraud-FC-32, features), PREDICT(Fraud-FC-32, features) FROM txns"); err == nil {
		t.Fatal("two PREDICTs must error")
	}
}

func TestLoadModelDuplicate(t *testing.T) {
	db := openDB(t, Options{})
	rng := rand.New(rand.NewSource(4))
	m := nn.FraudFC(rng, 16)
	if err := db.LoadModel(m, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadModel(m, 0); err == nil {
		t.Fatal("duplicate model load must error")
	}
}

func TestExplainPredict(t *testing.T) {
	db := openDB(t, Options{MemoryThreshold: 1})
	rng := rand.New(rand.NewSource(5))
	if err := db.LoadModel(nn.FraudFC(rng, 64), 0); err != nil {
		t.Fatal(err)
	}
	s, err := db.ExplainPredict("Fraud-FC-64", 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "relation-centric") {
		t.Fatalf("explain:\n%s", s)
	}
	if _, err := db.ExplainPredict("ghost", 1); err == nil {
		t.Fatal("missing model must error")
	}
}

func TestPredictAdaptiveRelationCentricInSQL(t *testing.T) {
	// With a tiny threshold every operator runs relation-centrically;
	// PREDICT must still return correct results through the blocked path.
	db := openDB(t, Options{MemoryThreshold: 1 << 10, InferBatch: 32})
	m, d := loadFraud(t, db, 64)
	res := mustExec(t, db, "SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	direct := m.Forward(d.X.Clone())
	for i, r := range res.Rows {
		for j, v := range r[0].Vec {
			if diff := v - direct.At(i, j); diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("row %d: %v vs %v", i, r[0].Vec, direct.Row(i))
			}
		}
	}
}

func TestPredictOOMSurfacesInQuery(t *testing.T) {
	db := openDB(t, Options{MemoryBudget: 4 << 10, InferBatch: 64})
	loadFraud(t, db, 64)
	_, err := db.Exec("SELECT PREDICT(Fraud-FC-32, features) FROM txns")
	if !errors.Is(err, memlimit.ErrOOM) {
		t.Fatalf("err = %v, want ErrOOM", err)
	}
}

func TestLoadModelFile(t *testing.T) {
	db := openDB(t, Options{})
	rng := rand.New(rand.NewSource(6))
	m := nn.FraudFC(rng, 16)
	path := filepath.Join(t.TempDir(), "m.tbm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Save(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := db.LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != m.Name() {
		t.Fatalf("loaded %q", got.Name())
	}
	if _, err := db.LoadModelFile("/nonexistent/m.tbm"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (7)")
	te, err := db.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	first, last, count := te.Heap.FirstPage(), te.Heap.LastPage(), te.Heap.Count()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the file and re-attach the heap (catalog persistence is the
	// caller's concern; page data must survive).
	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	schema := table.MustSchema(table.Column{Name: "a", Type: table.Int64})
	h := table.OpenHeap(db2.Pool(), schema, first, last, count)
	sc := h.Scan()
	tup, ok, err := sc.Next()
	if err != nil || !ok {
		t.Fatalf("scan after reopen: ok=%v err=%v", ok, err)
	}
	if tup[0].Int != 7 {
		t.Fatalf("value = %d", tup[0].Int)
	}
}

func TestOrderByInQuery(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (2), (3), (1)")
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 3 || res.Rows[1][0].Int != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := db.Exec("SELECT a FROM t ORDER BY ghost"); err == nil {
		t.Fatal("unknown order column must error")
	}
}

func TestDropTableSQL(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Exec("SELECT a FROM t"); err == nil {
		t.Fatal("dropped table must be gone")
	}
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Fatal("double drop must error")
	}
	// Name can be reused after drop.
	mustExec(t, db, "CREATE TABLE t (b TEXT)")
}

func TestCatalogPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT, who TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (7, 'x'), (8, 'y')")
	rng := rand.New(rand.NewSource(61))
	m := nn.FraudFC(rng, 16)
	if err := db.LoadModel(m, 0.91); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT a, who FROM t ORDER BY a")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 7 || res.Rows[1][1].Str != "y" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Inserts must continue the restored chain.
	mustExec(t, db2, "INSERT INTO t VALUES (9, 'z')")
	res = mustExec(t, db2, "SELECT a FROM t")
	if len(res.Rows) != 3 {
		t.Fatalf("rows after insert = %d", len(res.Rows))
	}
	// The model must be restored and servable.
	entry, err := db2.Catalog().ModelEntryFor("Fraud-FC-16")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Versions[0].Accuracy != 0.91 {
		t.Fatalf("accuracy = %v", entry.Versions[0].Accuracy)
	}
	mustExec(t, db2, "CREATE TABLE f (id INT, features VECTOR)")
	mustExec(t, db2, "INSERT INTO f VALUES (1, "+vec28+")")
	res = mustExec(t, db2, "SELECT PREDICT(Fraud-FC-16, features) FROM f")
	if len(res.Rows) != 1 || len(res.Rows[0][0].Vec) != 2 {
		t.Fatalf("predict after reopen = %v", res.Rows)
	}
}

// vec28 is a 28-wide SQL vector literal.
var vec28 = func() string {
	s := "[1"
	for i := 1; i < 28; i++ {
		s += ",0"
	}
	return s + "]"
}()

func TestOpenRejectsCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".meta", []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("corrupt catalog must be rejected")
	}
}

// Catalog versions 1 and 2 predate the block store; no such database
// exists, so Open refuses them rather than guessing at their models.
func TestOpenRejectsPreBlockstoreCatalog(t *testing.T) {
	for _, version := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "old.db")
		db, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		loadFraud(t, db, 4)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path + ".meta")
		if err != nil {
			t.Fatal(err)
		}
		var meta map[string]any
		if err := json.Unmarshal(raw, &meta); err != nil {
			t.Fatal(err)
		}
		meta["version"] = version
		if raw, err = json.Marshal(meta); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".meta", raw, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err = Open(path, Options{})
		if err == nil {
			db.Close()
			t.Fatalf("version %d catalog opened silently", version)
		}
		if !strings.Contains(err.Error(), "unsupported catalog version") {
			t.Fatalf("version %d: err = %v, want unsupported catalog version", version, err)
		}
	}
}

func TestOpenFreshDatabaseHasNoCatalog(t *testing.T) {
	db := openDB(t, Options{})
	if len(db.Catalog().Tables()) != 0 || len(db.Catalog().Models()) != 0 {
		t.Fatal("fresh database must start empty")
	}
}

func TestExecProfiled(t *testing.T) {
	db := openDB(t, Options{InferBatch: 8})
	loadFraud(t, db, 40)
	res, stats, err := db.ExecProfiled("SELECT id, PREDICT(Fraud-FC-32, features) FROM txns WHERE id < 20 LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	names := make([]string, len(stats))
	for i, s := range stats {
		names[i] = s.Name
	}
	want := []string{"limit", "project", "predict", "filter", "scan"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
	// Row counts: limit caps at 10; the scan stops early once the limit
	// is satisfied (pipelined early termination), so it reads at least
	// the 10 surviving rows but need not read all 40.
	if stats[0].Rows != 10 {
		t.Fatalf("limit rows = %d", stats[0].Rows)
	}
	if stats[4].Rows < 10 || stats[4].Rows > 40 {
		t.Fatalf("scan rows = %d", stats[4].Rows)
	}
	// Outer stages include inner time.
	for i := 1; i < len(stats); i++ {
		if stats[i].Elapsed > stats[i-1].Elapsed {
			t.Fatalf("stage %s (%v) slower than its parent %s (%v)",
				stats[i].Name, stats[i].Elapsed, stats[i-1].Name, stats[i-1].Elapsed)
		}
	}
	rendered := exec.FormatProfile(stats)
	if !strings.Contains(rendered, "predict") || !strings.Contains(rendered, "self") {
		t.Fatalf("profile rendering:\n%s", rendered)
	}
	if _, _, err := db.ExecProfiled("DROP TABLE txns"); err == nil {
		t.Fatal("non-SELECT must be rejected by ExecProfiled")
	}

	// A CTE source is profiled as the "cte" stage under the same chain;
	// ORDER BY … LIMIT 5 is a top-k.
	res, stats, err = db.ExecProfiled("WITH s AS (SELECT id FROM txns WHERE id < 30) SELECT id FROM s WHERE id >= 10 ORDER BY id DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0][0].Int != 29 {
		t.Fatalf("cte rows = %v", res.Rows)
	}
	names = names[:0]
	for _, s := range stats {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, ","), "limit,topk,project,filter,cte"; got != want {
		t.Fatalf("cte stages = %s, want %s", got, want)
	}
	if stats[4].Rows != 30 || stats[3].Rows != 20 {
		t.Fatalf("cte rows = %d, filter rows = %d", stats[4].Rows, stats[3].Rows)
	}
}

func TestConcurrentQueriesOverDistinctTables(t *testing.T) {
	db := openDB(t, Options{BufferFrames: 64})
	mustExec(t, db, "CREATE TABLE a (x INT)")
	mustExec(t, db, "CREATE TABLE b (x INT)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO a VALUES (%d)", i))
		mustExec(t, db, fmt.Sprintf("INSERT INTO b VALUES (%d)", i*2))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		table := "a"
		if g%2 == 1 {
			table = "b"
		}
		go func(table string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := db.Exec("SELECT x FROM " + table + " WHERE x >= 100")
				if err != nil {
					errs <- err
					return
				}
				if table == "a" && len(res.Rows) != 400 {
					errs <- fmt.Errorf("table a: %d rows", len(res.Rows))
					return
				}
			}
		}(table)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestLowerPredictAndStats(t *testing.T) {
	db := openDB(t, Options{MemoryThreshold: 1})
	rng := rand.New(rand.NewSource(91))
	if err := db.LoadModel(nn.FraudFC(rng, 32), 0); err != nil {
		t.Fatal(err)
	}
	dot, err := db.LowerPredict("Fraud-FC-32", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "matmul") {
		t.Fatalf("dot:\n%s", dot)
	}
	if _, err := db.LowerPredict("ghost", 1); err == nil {
		t.Fatal("missing model must error")
	}
	mustExec(t, db, "CREATE TABLE s (a INT)")
	mustExec(t, db, "INSERT INTO s VALUES (1)")
	mustExec(t, db, "SELECT a FROM s")
	st := db.Stats()
	if st.PoolHits == 0 && st.PoolMisses == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestEnableOffloadServesCorrectly(t *testing.T) {
	db := openDB(t, Options{})
	rt := dlruntime.New(dlruntime.Graph, 0)
	rt.SetOverheads(dlruntime.Overheads{})
	db.EnableOffload(rt, 50)
	rng := rand.New(rand.NewSource(111))
	m := nn.EncoderFC(rng)
	if err := db.LoadModel(m, 0); err != nil {
		t.Fatal(err)
	}
	d := data.Dense(112, 20, 76)
	rows := make([]table.Tuple, 20)
	for i := range rows {
		rows[i] = table.Tuple{table.IntVal(int64(i)), table.VecVal(d.Row(i))}
	}
	schema := table.MustSchema(
		table.Column{Name: "id", Type: table.Int64},
		table.Column{Name: "features", Type: table.FloatVec},
	)
	if _, err := db.CreateTable("enc", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.InsertRows("enc", rows); err != nil {
		t.Fatal(err)
	}
	s, err := db.ExplainPredict("Encoder-FC", 256)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "dl-centric") {
		t.Fatalf("plan should offload:\n%s", s)
	}
	res := mustExec(t, db, "SELECT PREDICT(Encoder-FC, features) FROM enc")
	direct := m.Forward(d.Clone())
	for i, r := range res.Rows {
		for j, v := range r[0].Vec {
			diff := v - direct.At(i, j)
			if diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

func TestPredictResultCacheServesRepeatQueries(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true, ResultCacheDistance: 1e-9})
	loadFraud(t, db, 60)
	q := "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"

	cold := mustExec(t, db, q)
	s1 := db.Stats()
	if s1.CacheMisses != 60 || s1.CacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/60", s1.CacheHits, s1.CacheMisses)
	}
	if s1.PredictUDFCalls == 0 {
		t.Fatal("cold run must invoke the model")
	}

	warm := mustExec(t, db, q)
	s2 := db.Stats()
	if s2.CacheHits != 60 {
		t.Fatalf("warm run: hits=%d, want 60", s2.CacheHits)
	}
	if s2.PredictUDFCalls != s1.PredictUDFCalls {
		t.Fatalf("warm run invoked the model (%d -> %d calls): cache failed to skip it",
			s1.PredictUDFCalls, s2.PredictUDFCalls)
	}
	if s2.BatchesAllHit == 0 {
		t.Fatal("warm run should have all-hit batches")
	}
	if len(cold.Rows) != len(warm.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(cold.Rows), len(warm.Rows))
	}
	for i := range cold.Rows {
		cp, wp := cold.Rows[i][1].Vec, warm.Rows[i][1].Vec
		for j := range cp {
			if cp[j] != wp[j] {
				t.Fatalf("row %d: cached prediction differs from cold model output", i)
			}
		}
	}

	rc, ok := db.ResultCacheFor("Fraud-FC-32")
	if !ok {
		t.Fatal("model cache missing")
	}
	if rc.Len() != 60 {
		t.Fatalf("cache holds %d entries, want 60", rc.Len())
	}
}

func TestPredictCachedMatchesUncached(t *testing.T) {
	plain := openDB(t, Options{InferBatch: 8})
	loadFraud(t, plain, 40)
	cached := openDB(t, Options{InferBatch: 8, ResultCache: true, ResultCacheDistance: 1e-9})
	loadFraud(t, cached, 40)
	q := "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"
	want := mustExec(t, plain, q)
	got := mustExec(t, cached, q) // cold: all rows go through miss compaction
	for i := range want.Rows {
		wp, gp := want.Rows[i][1].Vec, got.Rows[i][1].Vec
		if len(wp) != len(gp) {
			t.Fatalf("row %d width %d vs %d", i, len(wp), len(gp))
		}
		for j := range wp {
			if wp[j] != gp[j] {
				t.Fatalf("row %d: miss-compacted prediction differs from plain PREDICT", i)
			}
		}
	}
}

func TestPredictPipelineDisabledBitIdentical(t *testing.T) {
	db := openDB(t, Options{InferBatch: 8})
	loadFraud(t, db, 40)
	q := "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"
	a := mustExec(t, db, q)
	drainComputeBudget(t)
	b := mustExec(t, db, q)
	if note := predictNote(t, db, q); note != "serial" {
		t.Fatalf("predict note %q with the compute budget drained, want serial", note)
	}
	for i := range a.Rows {
		if a.Rows[i][0].Int != b.Rows[i][0].Int {
			t.Fatalf("row order diverged at %d", i)
		}
		ap, bp := a.Rows[i][1].Vec, b.Rows[i][1].Vec
		for j := range ap {
			if ap[j] != bp[j] {
				t.Fatalf("row %d: pipelined and serial PREDICT differ", i)
			}
		}
	}
}

func TestResultCacheMaxEntriesOption(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true, ResultCacheDistance: 1e-9, ResultCacheMaxEntries: 10})
	loadFraud(t, db, 30)
	mustExec(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	rc, ok := db.ResultCacheFor("Fraud-FC-32")
	if !ok {
		t.Fatal("model cache missing")
	}
	if rc.Len() != 10 {
		t.Fatalf("cache holds %d entries, want capped at 10", rc.Len())
	}
	if rc.Counters().Rejected != 20 {
		t.Fatalf("rejected = %d, want 20", rc.Counters().Rejected)
	}
}

func TestResultCacheRecreatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e.db")
	opts := Options{ResultCache: true, ResultCacheDistance: 1e-9}
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	loadFraud(t, db, 10)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rc, ok := db2.ResultCacheFor("Fraud-FC-32")
	if !ok {
		t.Fatal("reopened engine lost the model's result cache")
	}
	if rc.Len() != 0 {
		t.Fatalf("reopened cache should start cold, has %d entries", rc.Len())
	}
	if _, err := db2.Exec("SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"); err != nil {
		t.Fatal(err)
	}
}

func TestExecProfiledPredictNote(t *testing.T) {
	db := openDB(t, Options{InferBatch: 16, ResultCache: true, ResultCacheDistance: 1e-9})
	loadFraud(t, db, 20)
	note := predictNote(t, db, "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns")
	if !strings.Contains(note, "cache") {
		t.Fatalf("predict stage note %q missing cache counters", note)
	}
	if !strings.Contains(note, "pipelined") {
		t.Fatalf("predict stage note %q should report the pipelined mode that ran", note)
	}
}

func TestConcurrentCachedPredictQueries(t *testing.T) {
	db := openDB(t, Options{InferBatch: 8, ResultCache: true, ResultCacheDistance: 1e-9})
	loadFraud(t, db, 40)
	q := "SELECT id, PREDICT(Fraud-FC-32, features) FROM txns"
	want := mustExec(t, db, q)
	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := db.Exec(q)
			if err != nil {
				errs[w] = err
				return
			}
			if len(res.Rows) != len(want.Rows) {
				errs[w] = fmt.Errorf("got %d rows, want %d", len(res.Rows), len(want.Rows))
				return
			}
			for i := range res.Rows {
				gp, wp := res.Rows[i][1].Vec, want.Rows[i][1].Vec
				for j := range gp {
					if gp[j] != wp[j] {
						errs[w] = fmt.Errorf("row %d prediction diverged", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	s := db.Stats()
	if s.CacheHits+s.CacheShared != int64(workers*40) {
		t.Fatalf("hits=%d shared=%d, want %d served from cache", s.CacheHits, s.CacheShared, workers*40)
	}
}
