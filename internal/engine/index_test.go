package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tensorbase/internal/fault"
	"tensorbase/internal/wal"
)

// Key lookups (`WHERE firstcol = k` through a heap's volatile key index)
// must answer exactly what a heap scan answers, whatever rebuilt or
// maintained the index: reopen after an unclean stop, follower apply, and
// replica resync. The reference is the same filter over a CTE, which always
// scans.

const keyLo, keyHi = -12, 12

// insertGenerated runs one INSERT of n rows into t (id INT, x DOUBLE,
// label INT) with ids drawn from [keyLo, keyHi], so keys repeat and go
// negative.
func insertGenerated(db *DB, rng *rand.Rand, n int) error {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d.25, %d)", rng.Int63n(keyHi-keyLo+1)+keyLo, rng.Intn(1000), rng.Intn(3))
	}
	_, err := db.Exec("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	return err
}

// assertKeyReadsMatchScan checks every key in [keyLo-1, keyHi+1]: the point
// read must take the key index and return the scan's rows, in scan order.
func assertKeyReadsMatchScan(t *testing.T, db *DB) {
	t.Helper()
	for k := keyLo - 1; k <= keyHi+1; k++ {
		before := db.mIndexLookups.Value()
		got := mustExec(t, db, fmt.Sprintf("SELECT * FROM t WHERE id = %d", k))
		if db.mIndexLookups.Value() != before+1 {
			t.Fatalf("WHERE id = %d did not take the key index", k)
		}
		want := mustExec(t, db, fmt.Sprintf("WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id = %d", k))
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("id = %d: lookup %v, scan %v", k, got.Rows, want.Rows)
		}
	}
}

func rowCount(t *testing.T, db *DB) int {
	t.Helper()
	return len(mustExec(t, db, "SELECT id FROM t").Rows)
}

// TestKeyLookupAcrossUncleanStop: the index built over a reopened heap, then
// maintained by inserts and by an aborted statement's rollback, matches the
// scan; after a crash, recovery's tail reset and WAL replay leave it
// matching again.
func TestKeyLookupAcrossUncleanStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	path := filepath.Join(t.TempDir(), "k.db")
	db, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INT, x DOUBLE, label INT)")
	rows := 0
	for i := 0; i < 3; i++ {
		if err := insertGenerated(db, rng, 20); err != nil {
			t.Fatal(err)
		}
		rows += 20
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertKeyReadsMatchScan(t, db) // builds the index over the checkpointed heap
	for i := 0; i < 3; i++ {
		if err := insertGenerated(db, rng, 15); err != nil {
			t.Fatal(err)
		}
		rows += 15
	}
	// The fifth WAL append fails mid-statement: four rows are placed and
	// indexed, then rolled back.
	inj := fault.New()
	inj.FailAt(wal.FPAppend, errInjected, 5)
	db.SetFaults(inj)
	if err := insertGenerated(db, rng, 10); !errors.Is(err, errInjected) {
		t.Fatalf("faulted INSERT = %v, want the injected error", err)
	}
	if err := insertGenerated(db, rng, 5); err != nil {
		t.Fatal(err)
	}
	rows += 5
	assertKeyReadsMatchScan(t, db)
	if got := rowCount(t, db); got != rows {
		t.Fatalf("%d rows before the crash, want %d", got, rows)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := rowCount(t, re); got != rows {
		t.Fatalf("%d rows after recovery, want %d", got, rows)
	}
	assertKeyReadsMatchScan(t, re)
	if err := insertGenerated(re, rng, 10); err != nil {
		t.Fatal(err)
	}
	assertKeyReadsMatchScan(t, re)
}

// TestKeyLookupOnFollowerApply: a replica probed half-way through the
// stream keeps its index current through ApplyReplicated, and answers key
// reads identically to its own scan and to the primary.
func TestKeyLookupOnFollowerApply(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	primary := openDB(t, Options{})
	replica := openDB(t, Options{})
	replica.SetFollower(true)
	ship := &recShipper{}
	primary.SetShipper(ship)
	mustExec(t, primary, "CREATE TABLE t (id INT, x DOUBLE, label INT)")
	for i := 0; i < 8; i++ {
		if err := insertGenerated(primary, rng, 12); err != nil {
			t.Fatal(err)
		}
	}
	half := len(ship.groups) / 2
	for i, g := range ship.groups {
		if i == half {
			assertKeyReadsMatchScan(t, replica)
		}
		if err := replica.ApplyReplicated(g.csn, g.recs, false); err != nil {
			t.Fatalf("apply csn %d: %v", g.csn, err)
		}
	}
	assertKeyReadsMatchScan(t, replica)
	for k := keyLo; k <= keyHi; k++ {
		assertSameResults(t, primary, replica, fmt.Sprintf("SELECT * FROM t WHERE id = %d", k))
	}
}

// TestKeyLookupAfterResync: a replica whose diverged table t was probed is
// resynced; the fresh heap's index answers from the snapshot's rows only.
func TestKeyLookupAfterResync(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	primary := openDB(t, Options{})
	mustExec(t, primary, "CREATE TABLE t (id INT, x DOUBLE, label INT)")
	for i := 0; i < 4; i++ {
		if err := insertGenerated(primary, rng, 20); err != nil {
			t.Fatal(err)
		}
	}
	replica := openDB(t, Options{})
	mustExec(t, replica, "CREATE TABLE t (id INT, x DOUBLE, label INT)")
	if err := insertGenerated(replica, rng, 30); err != nil {
		t.Fatal(err)
	}
	assertKeyReadsMatchScan(t, replica) // index over the diverged heap
	replica.SetFollower(true)

	csn, recs, _, err := primary.ReplicaSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyReplicated(csn, recs, true); err != nil {
		t.Fatalf("resync: %v", err)
	}
	assertKeyReadsMatchScan(t, replica)
	for k := keyLo; k <= keyHi; k++ {
		assertSameResults(t, primary, replica, fmt.Sprintf("SELECT * FROM t WHERE id = %d", k))
	}
}

// TestKeyLookupDialect: literals and shapes where the answer stays the
// scan's but the access path changes — or deliberately does not.
func TestKeyLookupDialect(t *testing.T) {
	db := openDB(t, Options{})
	mustExec(t, db, "CREATE TABLE t (id INT, x DOUBLE, label INT)")
	mustExec(t, db, `INSERT INTO t VALUES (3, 1.5, 1), (-1, 2.5, 0), (3, 3.5, 2), (1, 4.5, 1),
		(9007199254740992, 5.5, 0), (9007199254740993, 6.5, 0)`)
	mustExec(t, db, "CREATE TABLE names (who TEXT, id INT)")
	mustExec(t, db, "INSERT INTO names VALUES ('a', 1), ('b', 2), ('a', 3)")

	cases := []struct {
		sql, ref string
		lookup   bool
		rows     int
	}{
		{"SELECT * FROM t WHERE id = 3.0", "WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id = 3.0", true, 2},
		{"SELECT * FROM t WHERE id = 1.5", "WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id = 1.5", false, 0},
		{"SELECT * FROM t WHERE id = -1", "WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id = -1", true, 1},
		{"SELECT id, x FROM t WHERE id = 3 ORDER BY x DESC LIMIT 1", "WITH s AS (SELECT * FROM t) SELECT id, x FROM s WHERE id = 3 ORDER BY x DESC LIMIT 1", true, 1},
		// 2^53 as a DOUBLE also equals float64(2^53 + 1): not a single key.
		{"SELECT * FROM t WHERE id = 9007199254740992.0", "WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id = 9007199254740992.0", false, 2},
		{"SELECT * FROM t WHERE label = 1", "WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE label = 1", false, 2},
		{"SELECT * FROM t WHERE id > 2", "WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id > 2", false, 4},
		{"WITH s AS (SELECT * FROM t) SELECT * FROM s WHERE id = 3", "SELECT * FROM t WHERE id = 3", false, 2},
		{"SELECT * FROM names WHERE who = 'a'", "WITH s AS (SELECT * FROM names) SELECT * FROM s WHERE who = 'a'", false, 2},
		{"SELECT * FROM names WHERE id = 2", "WITH s AS (SELECT * FROM names) SELECT * FROM s WHERE id = 2", false, 1},
	}
	for _, c := range cases {
		before := db.mIndexLookups.Value()
		got := mustExec(t, db, c.sql)
		if took := db.mIndexLookups.Value() > before; took != c.lookup {
			t.Fatalf("%q: key lookup = %v, want %v", c.sql, took, c.lookup)
		}
		if len(got.Rows) != c.rows {
			t.Fatalf("%q: %d rows, want %d", c.sql, len(got.Rows), c.rows)
		}
		before = db.mIndexLookups.Value()
		want := mustExec(t, db, c.ref)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q: %v, scan gives %v", c.sql, got.Rows, want.Rows)
		}
		if c.lookup && db.mIndexLookups.Value() != before {
			t.Fatalf("reference %q took the key index", c.ref)
		}
	}

	// EXPLAIN ANALYZE names the access path on the scan stage.
	_, stages, err := db.ExecProfiled("SELECT id FROM t WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	var note string
	for _, s := range stages {
		if s.Name == "scan" {
			note = s.Note
		}
	}
	if !strings.Contains(note, "index lookup id = 3 (2 rids)") {
		t.Fatalf("scan stage note %q, want the index lookup", note)
	}
}
