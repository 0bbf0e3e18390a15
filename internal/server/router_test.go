package server

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/retry"
)

// fakeNode is a controllable ReadNode over its own engine.
type fakeNode struct {
	name    string
	db      *engine.DB
	healthy atomic.Bool
}

func (n *fakeNode) Name() string   { return n.name }
func (n *fakeNode) DB() *engine.DB { return n.db }
func (n *fakeNode) Healthy() bool  { return n.healthy.Load() }

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), name+".db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	n := &fakeNode{name: name, db: db}
	n.healthy.Store(true)
	return n
}

func fastRetry() retry.Policy {
	return retry.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond, Attempts: 3}
}

func TestIsRead(t *testing.T) {
	for sql, want := range map[string]bool{
		"SELECT a FROM t":               true,
		"  select PREDICT(m, f) FROM t": true,
		"INSERT INTO t VALUES (1)":      false,
		"CREATE TABLE t (a INT)":        false,
		"DROP TABLE t":                  false,
		// Classification is by parsed statement kind. A literal-prefix
		// check misrouted every one of these reads to the primary:
		"WITH c AS (SELECT a FROM t) SELECT a FROM c": true,
		"(SELECT a FROM t)":                           true,
		"-- warm cache\nSELECT a FROM t":              true,
		"/* routed */ SELECT a FROM t":                true,
		"/* comment */ INSERT INTO t VALUES (1)":      false,
		"-- nothing here":                             false,
		"EXPLAIN NONSENSE":                            false,
	} {
		if got := IsRead(sql); got != want {
			t.Fatalf("IsRead(%q) = %v, want %v", sql, got, want)
		}
	}
}

// TestRouteDiscardsStaleSnapshot is the regression for the floor race: a
// healthy replica whose *engine* is behind the session's floor (a throttled
// apply loop, or a crash/reopen that recovered to an earlier CSN). Route
// must not serve its rows — they are stale for this session — and must
// serve from a node that satisfies the floor.
func TestRouteDiscardsStaleSnapshot(t *testing.T) {
	primary, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	if _, err := primary.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Exec("INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	floor := primary.CommittedCSN()

	// The throttled replica is healthy and has the table, but its engine
	// has not applied the row.
	n := newFakeNode(t, "r1")
	if _, err := n.db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(primary, []ReadNode{n}, fastRetry())

	res, node, err := rt.Route(context.Background(), "SELECT a FROM t", floor)
	if err != nil {
		t.Fatal(err)
	}
	if node == "r1" {
		t.Fatal("Route served rows from a replica pinned below the session floor")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 7 {
		t.Fatalf("Route returned stale rows %v; read-your-writes is broken", res.Rows)
	}
	if rt.lagged.Load() == 0 {
		t.Fatal("the discarded stale snapshot was not counted")
	}
}

func TestRoutePrefersReplica(t *testing.T) {
	primary, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	n := newFakeNode(t, "r1")
	if _, err := n.db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(primary, []ReadNode{n}, fastRetry())

	res, node, err := rt.Route(context.Background(), "SELECT a FROM t", 0)
	if err != nil || node != "r1" {
		t.Fatalf("Route = (%v, %q, %v), want replica r1", res, node, err)
	}
}

func TestRouteSkipsLaggingReplica(t *testing.T) {
	primary, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	if _, err := primary.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	n := newFakeNode(t, "r1") // applied CSN stays 0
	rt := NewRouter(primary, []ReadNode{n}, fastRetry())

	// Read-your-writes: the session's floor is past the replica.
	_, node, err := rt.Route(context.Background(), "SELECT a FROM t", 5)
	if err != nil || node != "primary" {
		t.Fatalf("Route past lagging replica = (%q, %v), want primary", node, err)
	}
	// At floor 0 the replica is eligible again.
	if _, err := n.db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	_, node, err = rt.Route(context.Background(), "SELECT a FROM t", 0)
	if err != nil || node != "r1" {
		t.Fatalf("Route at floor 0 = (%q, %v), want r1", node, err)
	}
}

func TestRouteFallsBackWhenAllUnhealthy(t *testing.T) {
	primary, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	if _, err := primary.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	n1, n2 := newFakeNode(t, "r1"), newFakeNode(t, "r2")
	n1.healthy.Store(false)
	n2.healthy.Store(false)
	rt := NewRouter(primary, []ReadNode{n1, n2}, fastRetry())

	_, node, err := rt.Route(context.Background(), "SELECT a FROM t", 0)
	if err != nil || node != "primary" {
		t.Fatalf("Route with all replicas down = (%q, %v), want primary", node, err)
	}
}

// TestRouteStatementErrorNotRetried: an error from a healthy node is the
// statement's fault and must return to the client, not burn retries.
func TestRouteStatementErrorNotRetried(t *testing.T) {
	primary, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	n := newFakeNode(t, "r1") // has no table: the SELECT errors deterministically
	rt := NewRouter(primary, []ReadNode{n}, fastRetry())

	_, node, err := rt.Route(context.Background(), "SELECT a FROM missing", 0)
	if err == nil || node != "r1" {
		t.Fatalf("Route = (%q, %v), want the statement error from r1", node, err)
	}
}

func TestRouteCancelledContext(t *testing.T) {
	primary, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	n := newFakeNode(t, "r1")
	n.healthy.Store(false)
	rt := NewRouter(primary, []ReadNode{n}, fastRetry())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rt.Route(ctx, "SELECT a FROM t", 0); err == nil {
		t.Fatal("Route on a cancelled context must error")
	}
}

// --- server-level robustness ---

// postRaw sends a statement and returns the raw HTTP response (headers
// matter for the Retry-After assertions).
func postRaw(t *testing.T, url, session, sql string) *http.Response {
	t.Helper()
	body := `{"session":"` + session + `","sql":"` + sql + `"}`
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	ts, srv, db := newTestServer(t, Options{})
	if qr, code := post(t, ts.URL, "", "CREATE TABLE t (a INT)"); code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, qr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	resp := postRaw(t, ts.URL, "", "SELECT a FROM t")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 missing Retry-After")
	}
	if got := db.Metrics().Counter(`tensorbase_http_rejected_total{reason="draining"}`); got != 1 {
		t.Fatalf("draining rejection counter = %d", got)
	}
	// Shutdown checkpointed: the WAL is empty and restart replays nothing.
	if n := db.Metrics().Gauge("tensorbase_wal_bytes"); n != 0 {
		t.Fatalf("WAL holds %v bytes after Shutdown's checkpoint", n)
	}
}

func TestShutdownDeadlineExpires(t *testing.T) {
	_, srv, _ := newTestServer(t, Options{})
	srv.inflightN.Add(1) // a statement that never finishes
	defer srv.inflightN.Add(-1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with stuck statement = %v, want DeadlineExceeded", err)
	}
}

func TestAdmissionSaturationRejects(t *testing.T) {
	ts, srv, db := newTestServer(t, Options{MaxInflight: 1, AdmitWait: 20 * time.Millisecond})
	if qr, code := post(t, ts.URL, "", "CREATE TABLE t (a INT)"); code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, qr)
	}
	srv.inflight <- struct{}{} // saturate the only slot
	defer func() { <-srv.inflight }()

	resp := postRaw(t, ts.URL, "", "SELECT a FROM t")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated admission = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("admission 503 missing Retry-After")
	}
	if got := db.Metrics().Counter(`tensorbase_http_rejected_total{reason="admission"}`); got != 1 {
		t.Fatalf("admission rejection counter = %d", got)
	}
}

// TestServerRoutesReadsThroughRouter wires a fake replica under the HTTP
// front end: reads land on it, writes stay on the primary, and a session's
// read after a write skips the lagging replica (read-your-writes).
func TestServerRoutesReadsThroughRouter(t *testing.T) {
	ts, srv, db := newTestServer(t, Options{})
	n := newFakeNode(t, "r1")
	if _, err := n.db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	srv.SetRouter(NewRouter(db, []ReadNode{n}, fastRetry()))

	qr, code := post(t, ts.URL, "", "CREATE TABLE t (a INT)")
	if code != http.StatusOK || qr.Node != "" {
		t.Fatalf("write reply = %d %+v, want no node (primary, unrouted)", code, qr)
	}
	sid := qr.Session
	if qr, code = post(t, ts.URL, sid, "INSERT INTO t VALUES (1)"); code != http.StatusOK {
		t.Fatalf("insert reply = %d %+v", code, qr)
	}

	// The INSERT advanced the session's floor past the replica's engine:
	// the read must answer from the primary.
	qr, code = post(t, ts.URL, sid, "SELECT a FROM t")
	if code != http.StatusOK || qr.Node != "primary" {
		t.Fatalf("read-your-writes reply = %d %+v, want node=primary", code, qr)
	}

	// Once the replica has applied the write, reads route to it.
	if _, err := n.db.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	qr, code = post(t, ts.URL, sid, "SELECT a FROM t")
	if code != http.StatusOK || qr.Node != "r1" {
		t.Fatalf("routed read reply = %d %+v, want node=r1", code, qr)
	}

	// A fresh session has no write floor: replica from the first read.
	qr, code = post(t, ts.URL, "", "SELECT a FROM t")
	if code != http.StatusOK || qr.Node != "r1" {
		t.Fatalf("fresh-session read = %d %+v, want node=r1", code, qr)
	}
}
