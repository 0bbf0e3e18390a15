package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sqDist is the reference DISTANCE: squared L2 summed in float64 in
// element order.
func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// vecText renders v as a SQL vector literal that parses back to the same
// float32 bits.
func vecText(v []float32) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(float64(f), 'g', -1, 32)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// TestDistanceTopK: `DISTANCE … ORDER BY distance LIMIT k` returns the k
// rows a stable sort of the reference distances puts first, with the same
// distance bits, in either direction and under WHERE. It runs as the
// in-memory top-k: the profile names a topk stage with no spill, and no
// page is written.
func TestDistanceTopK(t *testing.T) {
	db := openDB(t, Options{})
	loadFraud(t, db, 1500) // more rows than one sort run
	all := mustExec(t, db, "SELECT id, features FROM txns")
	q := make([]float32, len(all.Rows[0][1].Vec))
	for i := range q {
		q[i] = float32(i%5) * 0.37
	}
	type ref struct {
		id   int64
		dist float64
	}
	dists := make([]ref, len(all.Rows))
	for i, r := range all.Rows {
		dists[i] = ref{r[0].Int, sqDist(r[1].Vec, q)}
	}

	before := livePages(db)
	for _, tc := range []struct {
		clause string
		keep   func(id int64) bool
		desc   bool
		k      int
	}{
		{"ORDER BY distance LIMIT 10", nil, false, 10},
		{"ORDER BY distance DESC LIMIT 7", nil, true, 7},
		{"WHERE id >= 700 ORDER BY distance LIMIT 5", func(id int64) bool { return id >= 700 }, false, 5},
		{"ORDER BY distance LIMIT 1024", nil, false, 1024},
	} {
		var want []ref
		for _, d := range dists {
			if tc.keep == nil || tc.keep(d.id) {
				want = append(want, d)
			}
		}
		sort.SliceStable(want, func(i, j int) bool {
			if tc.desc {
				return want[i].dist > want[j].dist
			}
			return want[i].dist < want[j].dist
		})
		want = want[:tc.k]
		sqlText := "SELECT id, DISTANCE(features, " + vecText(q) + ") FROM txns " + tc.clause
		res := mustExec(t, db, sqlText)
		if got := res.Schema.Cols[1]; got.Name != "distance" || got.Type.String() != "DOUBLE" {
			t.Fatalf("%s: distance column = %+v", tc.clause, got)
		}
		if len(res.Rows) != tc.k {
			t.Fatalf("%s: %d rows, want %d", tc.clause, len(res.Rows), tc.k)
		}
		for i, r := range res.Rows {
			if r[0].Int != want[i].id || math.Float64bits(r[1].Float) != math.Float64bits(want[i].dist) {
				t.Fatalf("%s: row %d = (%d, %v), want (%d, %v)", tc.clause, i, r[0].Int, r[1].Float, want[i].id, want[i].dist)
			}
		}
		_, stats, err := db.ExecProfiled(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		if s := stage(t, stats, "topk"); s.Rows != int64(tc.k) || s.SpillRuns != 0 || s.SpillBytes != 0 {
			t.Fatalf("%s: topk stage rows=%d spill runs=%d bytes=%d", tc.clause, s.Rows, s.SpillRuns, s.SpillBytes)
		}
	}
	if got := livePages(db); got != before {
		t.Fatalf("tensorbase_disk_pages = %v after DISTANCE top-k statements, want %v", got, before)
	}
}

// TestDistanceRefusals: each malformed DISTANCE is a statement error that
// names its fault, and the session's engine keeps serving.
func TestDistanceRefusals(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE v (id INT, emb VECTOR)")
	mustExec(t, db, "INSERT INTO v VALUES (1, [1, 2]), (2, [3, 4])")
	mustExec(t, db, "CREATE TABLE d (distance DOUBLE, emb VECTOR)")
	for _, tc := range []struct{ sql, want string }{
		{"SELECT id, DISTANCE(ghost, [1, 2]) FROM v", `unknown column "ghost"`},
		{"SELECT DISTANCE(id, [1, 2]) FROM v", `DISTANCE column "id" is INT, want VECTOR`},
		{"SELECT DISTANCE(emb, []) FROM v", "DISTANCE needs a non-empty vector"},
		{"SELECT DISTANCE(emb, [1, 2, 3]) FROM v", "row vector has dimension 2, literal has 3"},
		{"SELECT DISTANCE(emb, [1]) FROM v", "row vector has dimension 2, literal has 1"},
		{"SELECT COUNT(*), DISTANCE(emb, [1, 2]) FROM v", "DISTANCE cannot be combined with aggregates"},
		{"SELECT DISTANCE(emb, [1, 2]) FROM v GROUP BY id", "DISTANCE cannot be combined with aggregates"},
		{"SELECT DISTANCE(emb, [1, 2]), DISTANCE(emb, [0, 0]) FROM v", "at most one DISTANCE per query"},
		{"SELECT id FROM v ORDER BY distance", `unknown column "distance"`},
		{"SELECT DISTANCE(emb, [1, 2]) FROM d", `ambiguous column "distance"`},
	} {
		_, err := db.Query(tc.sql)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want it to contain %q", tc.sql, err, tc.want)
		}
	}
	res := mustExec(t, db, "SELECT id, DISTANCE(emb, [1, 2]) FROM v ORDER BY distance")
	if len(res.Rows) != 2 || res.Rows[0][1].Float != 0 || res.Rows[1][1].Float != 8 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestDistanceSeesLaterInserts: DISTANCE reads the statement's snapshot,
// so a row committed before the statement is a candidate like any other.
// Nothing is built ahead of the query, so nothing can go stale.
func TestDistanceSeesLaterInserts(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE docs (id INT, emb VECTOR)")
	mustExec(t, db, "INSERT INTO docs VALUES (1, [0, 0]), (2, [10, 0]), (3, [0, 10])")
	const q = "SELECT id, DISTANCE(emb, [1, 1]) FROM docs ORDER BY distance LIMIT 2"
	if res := mustExec(t, db, q); res.Rows[0][0].Int != 1 || res.Rows[1][0].Int != 2 {
		t.Fatalf("before insert: %v", res.Rows)
	}
	mustExec(t, db, "INSERT INTO docs VALUES (4, [1, 1])")
	res := mustExec(t, db, q)
	if res.Rows[0][0].Int != 4 || res.Rows[0][1].Float != 0 || res.Rows[1][0].Int != 1 {
		t.Fatalf("after insert: %v", res.Rows)
	}
}

// TestDistanceAfterDropRecreate: a table dropped and recreated under the
// same name answers DISTANCE from its new rows only.
func TestDistanceAfterDropRecreate(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE vecs (id INT, v VECTOR)")
	mustExec(t, db, "INSERT INTO vecs VALUES (1, [0, 0]), (2, [10, 10])")
	mustExec(t, db, "SELECT id, DISTANCE(v, [1, 1]) FROM vecs ORDER BY distance LIMIT 1")
	mustExec(t, db, "DROP TABLE vecs")
	mustExec(t, db, "CREATE TABLE vecs (id INT, v VECTOR)")
	mustExec(t, db, "INSERT INTO vecs VALUES (100, [5, 5])")
	res := mustExec(t, db, "SELECT id, DISTANCE(v, [1, 1]) FROM vecs ORDER BY distance LIMIT 5")
	if got := fmt.Sprint(res.Rows); len(res.Rows) != 1 || res.Rows[0][0].Int != 100 || res.Rows[0][1].Float != 32 {
		t.Fatalf("DISTANCE over the recreated table = %s, want only row 100 at 32", got)
	}
}
