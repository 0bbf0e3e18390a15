package engine

import (
	"errors"
	"strings"
	"testing"
)

func seedDialectTable(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE sales (id INT, amount DOUBLE, who TEXT)")
	mustExec(t, db, `INSERT INTO sales VALUES
		(1, 10.5, 'alice'), (2, 200, 'bob'), (3, 3.25, 'carol'),
		(4, 40, 'alice'), (5, 0.5, 'bob')`)
}

func TestAggregatesGlobal(t *testing.T) {
	db := openDB(t, Options{})
	seedDialectTable(t, db)
	res := mustExec(t, db, "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM sales")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].Int != 5 {
		t.Fatalf("count = %v", r[0])
	}
	if r[1].Float != 254.25 || r[3].Float != 0.5 || r[4].Float != 200 {
		t.Fatalf("row = %v", r)
	}
	if r[2].Float != 254.25/5 {
		t.Fatalf("avg = %v", r[2])
	}
	if res.Schema.Cols[0].Name != "count" || res.Schema.Cols[1].Name != "sum_amount" {
		t.Fatalf("schema = %+v", res.Schema.Cols)
	}
}

func TestAggregatesGroupBy(t *testing.T) {
	db := openDB(t, Options{})
	seedDialectTable(t, db)
	res := mustExec(t, db, "SELECT who, COUNT(*), SUM(amount) FROM sales WHERE amount > 1 GROUP BY who")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// HashAggregate emits groups sorted by key.
	want := []struct {
		who   string
		count int64
		sum   float64
	}{{"alice", 2, 50.5}, {"bob", 1, 200}, {"carol", 1, 3.25}}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].Str != w.who || r[1].Int != w.count || r[2].Float != w.sum {
			t.Fatalf("row %d = %v, want %+v", i, r, w)
		}
	}
	// Non-grouped bare column is rejected; PREDICT + aggregate is rejected.
	if _, err := db.Exec("SELECT who, SUM(amount) FROM sales"); err == nil {
		t.Fatal("bare column without GROUP BY must fail")
	}
	if _, err := db.Exec("SELECT PREDICT(m, f), COUNT(*) FROM sales"); err == nil ||
		!strings.Contains(err.Error(), "aggregate") {
		t.Fatalf("PREDICT+aggregate must fail, got %v", err)
	}
	// GROUP BY without aggregates is DISTINCT.
	res = mustExec(t, db, "SELECT who FROM sales GROUP BY who ORDER BY who")
	if len(res.Rows) != 3 || res.Rows[0][0].Str != "alice" || res.Rows[2][0].Str != "carol" {
		t.Fatalf("distinct rows = %v", res.Rows)
	}
}

func TestCTEQueries(t *testing.T) {
	db := openDB(t, Options{})
	seedDialectTable(t, db)
	res := mustExec(t, db, "WITH big AS (SELECT id, amount FROM sales WHERE amount > 5) SELECT id FROM big ORDER BY id DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 4 || res.Rows[1][0].Int != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Chained CTEs: the second sees the first.
	res = mustExec(t, db, "WITH a AS (SELECT id, amount FROM sales WHERE amount >= 10), b AS (SELECT id FROM a WHERE id > 1) SELECT id FROM b ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 2 || res.Rows[1][0].Int != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Aggregates over a CTE.
	res = mustExec(t, db, "WITH big AS (SELECT amount FROM sales WHERE amount > 5) SELECT COUNT(*), SUM(amount) FROM big")
	if res.Rows[0][0].Int != 3 || res.Rows[0][1].Float != 250.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Unknown CTE body table surfaces the error.
	if _, err := db.Exec("WITH x AS (SELECT a FROM nope) SELECT a FROM x"); err == nil {
		t.Fatal("CTE over missing table must fail")
	}
	// Parenthesized and comment-prefixed reads execute.
	res = mustExec(t, db, "(SELECT id FROM sales WHERE id = 3)")
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "-- audit\nSELECT id FROM sales LIMIT 1")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestCheckFloor pins the read-your-writes check: a floor at the committed
// CSN passes, one past it is a typed lag, and the next commit clears it.
func TestCheckFloor(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	committed := db.CommittedCSN()
	if err := db.CheckFloor(committed); err != nil {
		t.Fatalf("floor at the committed CSN: %v", err)
	}
	if err := db.CheckFloor(committed + 1); !errors.Is(err, ErrLag) {
		t.Fatalf("floor past the committed CSN = %v, want ErrLag", err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	if err := db.CheckFloor(committed + 1); err != nil {
		t.Fatalf("floor after one more commit: %v", err)
	}
}
