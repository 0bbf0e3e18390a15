package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/obs"
	"tensorbase/internal/sql"
	"tensorbase/internal/table"
)

// seedSQL returns the statements that build the test tables on any engine
// or cluster: tx, with rows rows of id INT (the shard key), amount DOUBLE,
// who TEXT, f VECTOR, and clashSQL's table p. Amounts are distinct
// multiples of 0.25, so partial SUM/AVG across shards re-associate without
// rounding — scatter results stay bit-identical to single-node (arbitrary
// doubles would not: float addition is not associative, which DESIGN.md
// calls out).
func seedSQL(rows int) []string {
	stmts := []string{"CREATE TABLE tx (id INT, amount DOUBLE, who TEXT, f VECTOR)"}
	people := []string{"alice", "bob", "carol"}
	var b strings.Builder
	b.WriteString("INSERT INTO tx VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		amount := float64(i) + 0.25
		fmt.Fprintf(&b, "(%d, %s, '%s', [%d, %d, %d, %d])",
			i, fmt.Sprintf("%g", amount), people[i%len(people)], i, 2*i%7, (i*i)%11, 3+i%5)
	}
	stmts = append(stmts, b.String())
	return append(stmts, clashSQL...)
}

// testModel is a tiny deterministic FC model over the 4-dim feature column.
func testModel() *nn.Model {
	rng := rand.New(rand.NewSource(7))
	m, err := nn.NewModel("m4", []int{1, 4}, nn.NewLinear(rng, 4, 1))
	if err != nil {
		panic(err)
	}
	return m
}

// newRefEngine builds the single-node reference: all rows in one engine.
func newRefEngine(t *testing.T, rows int) *engine.DB {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "ref"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for _, s := range seedSQL(rows) {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.LoadModel(testModel(), 0.9); err != nil {
		t.Fatal(err)
	}
	return db
}

// newTestCluster builds an n-shard local cluster with the same data,
// loaded through the coordinator's own statement path.
func newTestCluster(t *testing.T, shards, rows int) *Cluster {
	t.Helper()
	cl, err := NewLocalCluster(t.TempDir(), shards, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	sess := cl.NewSession()
	for _, s := range seedSQL(rows) {
		if _, err := cl.Exec(context.Background(), s, sess); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.LoadModel(testModel(), 0.9); err != nil {
		t.Fatal(err)
	}
	return cl
}

// mustSelect parses q, which must be a SELECT.
func mustSelect(t *testing.T, q string) *sql.Select {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		t.Fatalf("%s: %T, want a SELECT", q, st)
	}
	return sel
}

// mustEqualResults asserts bit-identical schema and rows.
func mustEqualResults(t *testing.T, query string, want, got *engine.Result) {
	t.Helper()
	if len(want.Schema.Cols) != len(got.Schema.Cols) {
		t.Fatalf("%s: schema %v != %v", query, got.Schema.Cols, want.Schema.Cols)
	}
	for i := range want.Schema.Cols {
		if want.Schema.Cols[i] != got.Schema.Cols[i] {
			t.Fatalf("%s: schema col %d: %v != %v", query, i, got.Schema.Cols[i], want.Schema.Cols[i])
		}
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, want %d", query, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if !want.Rows[i][j].Equal(got.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: %v != %v", query, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// distQuery is the DISTANCE literal of the matrix. Over seedSQL's rows its
// distances are all distinct (TestScatterMatchesSingleNode checks), so
// ORDER BY distance has one answer however the shards split the rows.
var distQuery = []float32{5.3, 3.1, 2.7, 4.15}

// distItem is the DISTANCE select item over distQuery.
const distItem = "DISTANCE(f, [5.3, 3.1, 2.7, 4.15])"

// matrixQueries is the scatter-vs-single-node identity matrix: plain and
// filtered scans, ordered scans with pushed limits, global and grouped
// aggregates, PREDICT push-down, DISTANCE top-k, CTEs, and pinned point
// reads — including the comment/CTE/parenthesized forms the read
// classifier must route.
var matrixQueries = []string{
	"SELECT id, amount, who FROM tx ORDER BY id",
	"SELECT id, amount FROM tx WHERE amount > 10 ORDER BY id DESC",
	"SELECT id, amount FROM tx ORDER BY amount LIMIT 5",
	"SELECT who, id FROM tx WHERE who = 'bob' ORDER BY id",
	"SELECT COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) FROM tx",
	"SELECT who, COUNT(*), SUM(amount), AVG(amount) FROM tx GROUP BY who ORDER BY who",
	"SELECT who FROM tx GROUP BY who ORDER BY who",
	"SELECT id, PREDICT(m4, f) FROM tx ORDER BY id",
	"SELECT id, PREDICT(m4, f) FROM tx WHERE id = 7",
	"WITH big AS (SELECT id, amount FROM tx WHERE amount >= 5) SELECT COUNT(*), SUM(amount) FROM big",
	"WITH b AS (SELECT id, amount, who FROM tx WHERE amount < 20) SELECT who, MAX(amount) FROM b GROUP BY who ORDER BY who",
	"(SELECT id, who FROM tx WHERE id = 3)",
	"-- point read\nSELECT id, amount FROM tx WHERE id = 11",
	"SELECT id FROM tx WHERE id = 999", // pinned, empty everywhere
	"SELECT who, COUNT(*) FROM tx GROUP BY who ORDER BY count DESC LIMIT 1",
	"SELECT AVG(amount), SUM(amount), COUNT(*), AVG(id) FROM tx", // shared partials
	"SELECT MIN(id), MAX(id) FROM tx WHERE amount > 3",
	"SELECT COUNT(*) FROM tx WHERE id < 0",
	"SELECT id FROM tx ORDER BY id LIMIT 0",
	"SELECT id, " + distItem + " FROM tx ORDER BY distance",
	"SELECT id, who, " + distItem + " FROM tx ORDER BY distance LIMIT 5",
	"SELECT id, " + distItem + " FROM tx WHERE amount > 6 ORDER BY distance DESC LIMIT 4",
	"SELECT id, " + distItem + " FROM tx WHERE amount < 12 ORDER BY id",
	"SELECT id, " + distItem + " FROM tx WHERE id = 7",
	"SELECT id, PREDICT(m4, f), " + distItem + " FROM tx ORDER BY distance LIMIT 3",
	"WITH b AS (SELECT id, f FROM tx WHERE id < 20) SELECT id, " + distItem + " FROM b ORDER BY distance LIMIT 3",
	// Group columns named like the partials a shard computes: COUNT(*)
	// would be `count`, SUM(id) would be `sum_id`.
	"SELECT count, AVG(id) FROM p GROUP BY count ORDER BY count",
	"SELECT sum_id, AVG(id), COUNT(*) FROM p GROUP BY sum_id ORDER BY sum_id",
}

func TestScatterMatchesSingleNode(t *testing.T) {
	const rows = 24
	ref := newRefEngine(t, rows)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl := newTestCluster(t, shards, rows)
			sess := cl.NewSession()
			for _, q := range matrixQueries {
				want, err := ref.Query(q)
				if err != nil {
					t.Fatalf("ref %s: %v", q, err)
				}
				got, err := cl.Exec(context.Background(), q, sess)
				if err != nil {
					t.Fatalf("cluster %s: %v", q, err)
				}
				mustEqualResults(t, q, want, got)
			}

			// ORDER BY ties: the ordered merge emits each tie group in
			// shard order, not a single node's scan order. The sort keys
			// match in sequence and the rows match as a multiset.
			if shards > 1 {
				q := "SELECT who, id FROM tx ORDER BY who"
				want, err := ref.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cl.Exec(context.Background(), q, sess)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s: %d rows, want %d", q, len(got.Rows), len(want.Rows))
				}
				rows := make(map[string]int)
				for i := range want.Rows {
					if !want.Rows[i][0].Equal(got.Rows[i][0]) {
						t.Fatalf("%s: row %d key %v, want %v", q, i, got.Rows[i][0], want.Rows[i][0])
					}
					rows[fmt.Sprint(want.Rows[i])]++
					rows[fmt.Sprint(got.Rows[i])]--
				}
				for r, n := range rows {
					if n != 0 {
						t.Fatalf("%s: row %s count differs by %d", q, r, n)
					}
				}
			}

			// DISTANCE is a float64 loop over the stored vector, bit for
			// bit, and strictly ascending: the matrix's distances are
			// distinct, so no ORDER BY distance above depended on a tie.
			res, err := cl.Exec(context.Background(), "SELECT f, "+distItem+" FROM tx ORDER BY distance", sess)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != rows {
				t.Fatalf("DISTANCE over every row: %d rows, want %d", len(res.Rows), rows)
			}
			for i, r := range res.Rows {
				var want float64
				for j, v := range r[0].Vec {
					d := float64(v) - float64(distQuery[j])
					want += d * d
				}
				if math.Float64bits(r[1].Float) != math.Float64bits(want) {
					t.Fatalf("row %d: distance %v, float64 loop %v", i, r[1].Float, want)
				}
				if i > 0 && !(res.Rows[i-1][1].Float < r[1].Float) {
					t.Fatalf("rows %d and %d: distances %v, %v are not strictly ascending", i-1, i, res.Rows[i-1][1].Float, r[1].Float)
				}
			}
		})
	}
}

// errorParityQueries are statements a single node refuses. The cluster
// must refuse each one too, in the single node's words, whichever of the
// scatter or coordinator paths plans it. Table p (clashSQL) stores columns
// named like computed ones, so a computed column would clash with them.
var errorParityQueries = []string{
	"WITH b AS (SELECT id, f FROM tx) SELECT * FROM b ORDER BY f",
	"SELECT f, COUNT(*) FROM tx GROUP BY f ORDER BY f",
	"SELECT COUNT(*), PREDICT(m4, f) FROM tx",
	"SELECT *, COUNT(*) FROM tx",
	"WITH b AS (SELECT id, who FROM tx) SELECT *, id FROM b",
	"WITH b AS (SELECT id, who FROM tx) SELECT id, COUNT(*) FROM b GROUP BY who",
	"WITH b AS (SELECT id, f FROM tx) SELECT PREDICT(m4, f), PREDICT(m4, f) FROM b",
	"SELECT who, COUNT(*) FROM tx GROUP BY nope",
	"SELECT who, COUNT(*) FROM tx GROUP BY who ORDER BY id",
	"WITH b AS (SELECT id, who FROM tx) SELECT id FROM b ORDER BY nope",
	"SELECT id FROM nope",
	"SELECT COUNT(*) FROM nope",
	"SELECT id, DISTANCE(nope, [1, 2, 3, 4]) FROM tx ORDER BY distance LIMIT 3",
	"SELECT id, DISTANCE(who, [1, 2, 3, 4]) FROM tx",
	"SELECT id, DISTANCE(f, []) FROM tx",
	"SELECT id, DISTANCE(f, [1, 2, 3]) FROM tx ORDER BY distance LIMIT 3",
	"SELECT COUNT(*), DISTANCE(f, [1, 2, 3, 4]) FROM tx",
	"WITH b AS (SELECT id, f FROM tx) SELECT id, DISTANCE(f, [1, 2]) FROM b",
	"SELECT id, PREDICT(m4, f) FROM p",
	"SELECT PREDICT(m4, f) FROM p ORDER BY prediction",
	"SELECT id, DISTANCE(f, [1, 2, 3, 4]) FROM p",
	"WITH b AS (SELECT id, prediction, f FROM p) SELECT id, PREDICT(m4, f) FROM b",
	"SELECT count, COUNT(*) FROM p GROUP BY count",
}

// clashSQL builds table p, whose stored columns are named prediction,
// distance, count and sum_id.
var clashSQL = []string{
	"CREATE TABLE p (id INT, prediction DOUBLE, distance DOUBLE, count INT, sum_id INT, f VECTOR)",
	"INSERT INTO p VALUES (0, 42, 42, 1, 10, [1, 2, 3, 4]), (1, 42, 42, 2, 20, [2, 3, 4, 5]), (2, 42, 42, 3, 10, [3, 4, 5, 6]), " +
		"(3, 42, 42, 1, 20, [4, 5, 6, 7]), (4, 42, 42, 2, 10, [5, 6, 7, 8]), (5, 42, 42, 1, 10, [6, 7, 8, 9])",
}

func TestScatterErrorsMatchSingleNode(t *testing.T) {
	const rows = 24
	ref := newRefEngine(t, rows)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl := newTestCluster(t, shards, rows)
			sess := cl.NewSession()
			for _, q := range errorParityQueries {
				_, refErr := ref.Query(q)
				if refErr == nil {
					t.Fatalf("ref %s: no error", q)
				}
				res, err := cl.Exec(context.Background(), q, sess)
				if err == nil {
					t.Fatalf("cluster %s: no error, %d rows; ref: %v", q, len(res.Rows), refErr)
				}
				if !strings.Contains(err.Error(), refErr.Error()) {
					t.Fatalf("cluster %s: %v, want it to contain %q", q, err, refErr)
				}
			}

			// The one documented difference: the coordinator holds no
			// models, so PREDICT over a CTE's gathered rows is refused.
			q := "WITH b AS (SELECT id, f FROM tx) SELECT id, PREDICT(m4, f) FROM b"
			if _, err := ref.Query(q); err != nil {
				t.Fatalf("ref %s: %v", q, err)
			}
			_, err := cl.Exec(context.Background(), q, sess)
			if err == nil || !strings.Contains(err.Error(), "PREDICT is not supported over gathered rows") {
				t.Fatalf("cluster %s: %v, want the gathered-rows refusal", q, err)
			}
		})
	}
}

// malformedInserts each carry one row a single node refuses, among rows
// that hash to several shards.
var malformedInserts = []string{
	"INSERT INTO tx VALUES (200, 0.5, 'x', [1, 1, 1, 1]), (201, 0.5, 'x'), (202, 0.5, 'x', [1, 1, 1, 1]), (203, 0.5, 'x', [1, 1, 1, 1])",
	"INSERT INTO tx VALUES (300, 0.5, 'x', [1, 1, 1, 1]), (301, 'x', 'x', [1, 1, 1, 1]), (302, 0.5, 'x', [1, 1, 1, 1]), (303, 0.5, 'x', [1, 1, 1, 1])",
	"INSERT INTO tx VALUES ('x', 0.5, 'x', [1, 1, 1, 1])",
}

// TestSplitInsertRefusedWhole: an INSERT a single node refuses applies no
// row on any shard, and the cluster refuses it in the single node's words,
// row index included.
func TestSplitInsertRefusedWhole(t *testing.T) {
	const rows = 24
	ref := newRefEngine(t, rows)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cl := newTestCluster(t, shards, rows)
			sess := cl.NewSession()
			for _, q := range malformedInserts {
				_, refErr := ref.Exec(q)
				if refErr == nil {
					t.Fatalf("ref %s: no error", q)
				}
				_, err := cl.Exec(context.Background(), q, sess)
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("cluster %s: %v, want %q", q, err, refErr)
				}
			}
			res, err := cl.Exec(context.Background(), "SELECT COUNT(*) FROM tx", sess)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].Int; got != rows {
				t.Fatalf("COUNT(*) after the refused INSERTs = %d, want %d", got, rows)
			}
		})
	}
}

// TestSharedStatementIsReadOnly: a scatter hands one parsed statement to
// every shard at once. Eight clients run the same two parsed statements on
// four shards, a PREDICT+DISTANCE scan and a grouped aggregate; every
// answer matches a single node's, and each statement still deep-equals a
// fresh parse. Under -race this also shows no shard writes the statement.
func TestSharedStatementIsReadOnly(t *testing.T) {
	const rows = 24
	queries := []string{
		"SELECT id, PREDICT(m4, f), " + distItem + " FROM tx ORDER BY distance LIMIT 5",
		"SELECT who, COUNT(*), SUM(amount), AVG(amount) FROM tx GROUP BY who ORDER BY who",
	}
	ref := newRefEngine(t, rows)
	cl := newTestCluster(t, 4, rows)
	stmts := make([]*sql.Select, len(queries))
	for i, q := range queries {
		stmts[i] = mustSelect(t, q)
	}
	const clients = 8
	results := make([][]*engine.Result, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range stmts {
				res, err := cl.Run(context.Background(), st, nil)
				if err != nil {
					errs[c] = err
					return
				}
				results[c] = append(results[c], res)
			}
		}()
	}
	wg.Wait()
	for c := range results {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
	}
	for i, q := range queries {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for c := range results {
			mustEqualResults(t, q, want, results[c][i])
		}
		if fresh := mustSelect(t, q); !reflect.DeepEqual(stmts[i], fresh) {
			t.Fatalf("%s: the shared statement changed: %+v, fresh parse %+v", q, stmts[i], fresh)
		}
	}
}

// TestPinnedVsScatterCounters checks the fast-path split is observable:
// key-pinned point reads increment the pinned counter only.
func TestPinnedVsScatterCounters(t *testing.T) {
	cl := newTestCluster(t, 4, 12)
	sess := cl.NewSession()
	p0, s0 := cl.PinnedCount(), cl.ScatterCount()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cl.Exec(ctx, fmt.Sprintf("SELECT id, amount FROM tx WHERE id = %d", i), sess); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Exec(ctx, "SELECT COUNT(*) FROM tx", sess); err != nil {
		t.Fatal(err)
	}
	if got := cl.PinnedCount() - p0; got != 5 {
		t.Fatalf("pinned = %d, want 5", got)
	}
	if got := cl.ScatterCount() - s0; got != 1 {
		t.Fatalf("scattered = %d, want 1", got)
	}

	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counter("tensorbase_shard_pinned_total") == 0 {
		t.Fatal("pinned counter not exported")
	}
	if snap.Counter("tensorbase_shard_scatter_total") == 0 {
		t.Fatal("scatter counter not exported")
	}
}

// TestKillRestartConvergence kills one shard: pinned reads for other
// shards keep serving, scattered reads, pinned reads and writes for the
// dead shard fail retriably with ErrUnavailable, a write split across the
// dead shard and a live one says it was partially applied, and a restart
// restores everything from the shard's durable state — without the rows
// the dead shard refused.
func TestKillRestartConvergence(t *testing.T) {
	const rows = 16
	cl := newTestCluster(t, 4, rows)
	sess := cl.NewSession()
	ctx := context.Background()

	// Pick two ids on different shards.
	deadID, liveID := -1, -1
	for i := 0; i < rows; i++ {
		switch ShardOf(table.IntVal(int64(i)), 4) {
		case 1:
			if deadID < 0 {
				deadID = i
			}
		case 2:
			if liveID < 0 {
				liveID = i
			}
		}
	}
	if deadID < 0 || liveID < 0 {
		t.Fatal("seed rows do not cover shards 1 and 2")
	}
	// Unused ids for the write probes: two owned by the dead shard, one by
	// a live shard.
	var newDead []int
	newLive := -1
	for i := 500; len(newDead) < 2 || newLive < 0; i++ {
		switch ShardOf(table.IntVal(int64(i)), 4) {
		case 1:
			if len(newDead) < 2 {
				newDead = append(newDead, i)
			}
		case 2:
			if newLive < 0 {
				newLive = i
			}
		}
	}

	if err := cl.Nodes()[1].(*LocalNode).Kill(); err != nil {
		t.Fatal(err)
	}

	if _, err := cl.Exec(ctx, fmt.Sprintf("SELECT id FROM tx WHERE id = %d", liveID), sess); err != nil {
		t.Fatalf("pinned read for a live shard must survive: %v", err)
	}
	if _, err := cl.Exec(ctx, fmt.Sprintf("SELECT id FROM tx WHERE id = %d", deadID), sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("pinned read for the dead shard = %v, want ErrUnavailable", err)
	}
	if _, err := cl.Exec(ctx, "SELECT COUNT(*) FROM tx", sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("scattered read with a dead shard = %v, want ErrUnavailable", err)
	}
	ins := fmt.Sprintf("INSERT INTO tx VALUES (%d, 0.5, 'eve', [1, 1, 1, 1])", newDead[0])
	if _, err := cl.Exec(ctx, ins, sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("write for the dead shard = %v, want ErrUnavailable", err)
	}
	ins = fmt.Sprintf("INSERT INTO tx VALUES (%d, 0.5, 'eve', [1, 1, 1, 1]), (%d, 0.75, 'eve', [2, 2, 2, 2])", newDead[1], newLive)
	_, err := cl.Exec(ctx, ins, sess)
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), "partially applied") {
		t.Fatalf("write split across the dead and a live shard = %v, want a partially applied ErrUnavailable", err)
	}

	if err := cl.Nodes()[1].(*LocalNode).Restart(); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Exec(ctx, "SELECT COUNT(*) FROM tx", sess)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int; got != rows+1 {
		t.Fatalf("count after restart = %d, want %d (the seed plus the live shard's row)", got, rows+1)
	}
}

// TestSessionFloors checks read-your-writes: a write raises the owning
// shard's floor, a node below the floor answers ErrLag, and the error is
// typed retriable rather than serving stale rows.
func TestSessionFloors(t *testing.T) {
	cl := newTestCluster(t, 2, 8)
	sess := cl.NewSession()
	ctx := context.Background()

	if _, err := cl.Exec(ctx, "INSERT INTO tx VALUES (100, 1.25, 'dana', [9, 9, 9, 9])", sess); err != nil {
		t.Fatal(err)
	}
	owner := ShardOf(table.IntVal(100), 2)
	if sess.floor(owner) == 0 {
		t.Fatal("write did not raise the owner shard's floor")
	}

	// Read-your-writes: the pinned read sees the insert immediately.
	res, err := cl.Exec(ctx, "SELECT id, who FROM tx WHERE id = 100", sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str != "dana" {
		t.Fatalf("read-your-writes returned %v", res.Rows)
	}

	// A floor the shard has not reached yet is a typed, retriable lag.
	node := cl.Nodes()[owner]
	if _, err := node.Query(ctx, mustSelect(t, "SELECT id FROM tx"), sess.floor(owner)+1000); !errors.Is(err, engine.ErrLag) {
		t.Fatalf("future floor = %v, want ErrLag", err)
	}
}

// TestHashDeterminism pins the property the shard map depends on: equal
// values hash equally across types' canonical forms, and the int→float
// coercion matches what the engine stores.
func TestHashDeterminism(t *testing.T) {
	if HashValue(table.IntVal(42)) != HashValue(table.IntVal(42)) {
		t.Fatal("int hash not deterministic")
	}
	if HashValue(table.TextVal("alice")) == HashValue(table.TextVal("bob")) {
		t.Fatal("suspicious text collision in test vectors")
	}
	v, err := engine.Coerce(table.IntVal(3), table.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if v.Type != table.Float64 || v.Float != 3.0 {
		t.Fatalf("coerced key = %v", v)
	}
	if _, err := engine.Coerce(table.FloatVal(1.5), table.Int64); err == nil {
		t.Fatal("1.5 must not coerce to an INT key")
	}
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		spread[ShardOf(table.IntVal(int64(i)), 4)] = true
	}
	if len(spread) != 4 {
		t.Fatalf("64 keys landed on %d of 4 shards", len(spread))
	}
}
