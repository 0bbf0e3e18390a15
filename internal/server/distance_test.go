package server

import (
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/nn"
	"tensorbase/internal/repl"
)

// TestDistanceOverHTTP: a DISTANCE top-k answers the same rows, with the
// same distance bits, from a log-shipping replica behind the Router and
// from a 4-shard cluster, and those bits are a float64 loop's. Each
// malformed DISTANCE, and each PREDICT or DISTANCE over table p whose
// stored columns have the computed names, is a 400 carrying the same error
// text on both.
func TestDistanceOverHTTP(t *testing.T) {
	const rows = 32
	// The sharded server seeds demo (id INT, f VECTOR) with
	// f = [i, i%5, (i*3)%7, 1+i%2]; the replicated one gets the same rows.
	sharded, _, _ := newShardedServer(t, 4, rows)

	pdb, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pdb.Close() })
	const hb = 10 * time.Millisecond
	prim := repl.NewPrimary(pdb, repl.PrimaryOptions{HeartbeatInterval: hb})
	t.Cleanup(prim.Close)
	rep, err := repl.NewReplica(filepath.Join(t.TempDir(), "r.db"), repl.ReplicaOptions{
		Name: "replica-1", HeartbeatInterval: hb,
		Dial: func() (net.Conn, error) {
			c1, c2 := net.Pipe()
			prim.Attach(c2, nil)
			return c1, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	slot := &nodeSlot{}
	slot.rep.Store(rep)
	t.Cleanup(func() { slot.rep.Load().Close() })
	srv := New(pdb, Options{})
	t.Cleanup(srv.Close)
	srv.SetRouter(NewRouter(pdb, []ReadNode{slot}, fastRetry()))
	mux := http.NewServeMux()
	srv.Attach(mux)
	replicated := newLocalServer(t, mux)

	// The sharded server's model; the replica receives it from the log.
	m, err := nn.NewModel("demo-fc", []int{1, 4}, nn.NewLinear(rand.New(rand.NewSource(5)), 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := pdb.LoadModel(m, 0.9); err != nil {
		t.Fatal(err)
	}
	clash := []string{
		"CREATE TABLE p (id INT, prediction DOUBLE, distance DOUBLE, f VECTOR)",
		"INSERT INTO p VALUES (0, 42, 42, [1, 2, 3, 4]), (1, 42, 42, [2, 3, 4, 5])",
	}
	for _, stmt := range append([]string{"CREATE TABLE demo (id INT, f VECTOR)", demoInsert(rows)}, clash...) {
		if qr, code := post(t, replicated, "", stmt); code != http.StatusOK {
			t.Fatalf("%.40s: %d %+v", stmt, code, qr)
		}
	}
	for _, stmt := range clash {
		if qr, code := post(t, sharded.URL, "", stmt); code != http.StatusOK {
			t.Fatalf("%.40s: %d %+v", stmt, code, qr)
		}
	}
	waitApplied(t, pdb, slot)

	q := []float32{3.3, 1.7, 2.9, 0.6}
	const sqlText = "SELECT id, DISTANCE(f, [3.3, 1.7, 2.9, 0.6]) FROM demo ORDER BY distance LIMIT 6"
	fromReplica, code := post(t, replicated, "", sqlText)
	if code != http.StatusOK || fromReplica.Node != "replica-1" {
		t.Fatalf("replicated DISTANCE = %d %+v, want 200 from replica-1", code, fromReplica)
	}
	fromShards, code := post(t, sharded.URL, "", sqlText)
	if code != http.StatusOK {
		t.Fatalf("sharded DISTANCE = %d %+v", code, fromShards)
	}
	if len(fromReplica.Rows) != 6 || len(fromShards.Rows) != 6 {
		t.Fatalf("rows: replica %d, shards %d, want 6 each", len(fromReplica.Rows), len(fromShards.Rows))
	}
	for i := range fromReplica.Rows {
		id := fromReplica.Rows[i][0].(float64)
		n := int(id)
		f := []float32{float32(n), float32(n % 5), float32((n * 3) % 7), float32(1 + n%2)}
		var want float64
		for j := range f {
			d := float64(f[j]) - float64(q[j])
			want += d * d
		}
		got := fromReplica.Rows[i][1].(float64)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d (id %d): replica distance %v, float64 loop %v", i, n, got, want)
		}
		if i > 0 && !(fromReplica.Rows[i-1][1].(float64) < got) {
			t.Fatalf("row %d: distances not strictly ascending: %v", i, fromReplica.Rows)
		}
		if fromShards.Rows[i][0].(float64) != id || math.Float64bits(fromShards.Rows[i][1].(float64)) != math.Float64bits(got) {
			t.Fatalf("row %d: shards %v, replica %v", i, fromShards.Rows[i], fromReplica.Rows[i])
		}
	}

	for _, bad := range []string{
		"SELECT id, DISTANCE(nope, [1, 2, 3, 4]) FROM demo",
		"SELECT DISTANCE(id, [1, 2, 3, 4]) FROM demo",
		"SELECT id, DISTANCE(f, []) FROM demo",
		"SELECT id, DISTANCE(f, [1, 2]) FROM demo ORDER BY distance LIMIT 3",
		"SELECT COUNT(*), DISTANCE(f, [1, 2, 3, 4]) FROM demo",
		"SELECT id, PREDICT(demo-fc, f) FROM p",
		"SELECT PREDICT(demo-fc, f) FROM p ORDER BY prediction",
		"SELECT id, DISTANCE(f, [1, 2, 3, 4]) FROM p",
		"WITH b AS (SELECT id, prediction, f FROM p) SELECT id, PREDICT(demo-fc, f) FROM b",
	} {
		single, code := post(t, replicated, "", bad)
		if code != http.StatusBadRequest || single.Error == "" {
			t.Fatalf("replicated %s = %d %+v, want 400", bad, code, single)
		}
		scattered, code := post(t, sharded.URL, "", bad)
		if code != http.StatusBadRequest || !strings.Contains(scattered.Error, single.Error) {
			t.Fatalf("sharded %s = %d %q, want 400 containing %q", bad, code, scattered.Error, single.Error)
		}
	}
}
