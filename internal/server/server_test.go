package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tensorbase/internal/engine"
)

func newTestServer(t *testing.T, sopts Options) (*httptest.Server, *Server, *engine.DB) {
	t.Helper()
	db, err := engine.Open(filepath.Join(t.TempDir(), "s.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, sopts)
	mux := http.NewServeMux()
	srv.Attach(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return ts, srv, db
}

// post sends one statement and decodes the reply.
func post(t *testing.T, url, session, sql string) (queryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{Session: session, SQL: sql})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return qr, resp.StatusCode
}

func TestSessionRoundTrip(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{})

	qr, code := post(t, ts.URL, "", "CREATE TABLE t (a INT, b TEXT)")
	if code != http.StatusOK || qr.Error != "" {
		t.Fatalf("create: %d %q", code, qr.Error)
	}
	if qr.Session == "" || qr.Seq != 1 {
		t.Fatalf("create reply = %+v, want minted session and seq 1", qr)
	}
	sid := qr.Session

	qr, code = post(t, ts.URL, sid, "INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if code != http.StatusOK || qr.RowsAffected != 2 || qr.Seq != 2 {
		t.Fatalf("insert reply = %d %+v", code, qr)
	}
	if qr.Session != sid {
		t.Fatal("session id changed mid-stream")
	}

	qr, code = post(t, ts.URL, sid, "SELECT b, a FROM t WHERE a > 1")
	if code != http.StatusOK || qr.Seq != 3 {
		t.Fatalf("select reply = %d %+v", code, qr)
	}
	if len(qr.Columns) != 2 || qr.Columns[0] != "b" || qr.Columns[1] != "a" {
		t.Fatalf("columns = %v", qr.Columns)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0] != "y" || qr.Rows[0][1] != float64(2) {
		t.Fatalf("rows = %v", qr.Rows)
	}
	if n := srv.Sessions(); n != 1 {
		t.Fatalf("live sessions = %d, want 1", n)
	}
}

func TestStatementErrorKeepsSession(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	qr, _ := post(t, ts.URL, "", "CREATE TABLE t (a INT)")
	sid := qr.Session

	qr, code := post(t, ts.URL, sid, "SELECT nope FROM t")
	if code != http.StatusBadRequest || qr.Error == "" {
		t.Fatalf("bad statement = %d %+v, want 400 with error", code, qr)
	}
	// The session survives its statement's failure.
	qr, code = post(t, ts.URL, sid, "SELECT a FROM t")
	if code != http.StatusOK || qr.Error != "" {
		t.Fatalf("session dead after statement error: %d %+v", code, qr)
	}
}

func TestUnknownSession(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	if _, code := post(t, ts.URL, "deadbeef", "SELECT 1 FROM t"); code != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", code)
	}
}

func TestSessionCap(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{MaxSessions: 2})
	for i := 0; i < 2; i++ {
		if qr, code := post(t, ts.URL, "", "CREATE TABLE t"+fmt.Sprint(i)+" (a INT)"); code != http.StatusOK {
			t.Fatalf("mint %d: %d %+v", i, code, qr)
		}
	}
	qr, code := post(t, ts.URL, "", "SELECT a FROM t0")
	if code != http.StatusServiceUnavailable || qr.Error == "" {
		t.Fatalf("over-cap mint = %d %+v, want 503", code, qr)
	}
	if srv.Sessions() != 2 {
		t.Fatalf("sessions = %d", srv.Sessions())
	}
	if got := srv.db.Metrics().Counter("tensorbase_http_sessions_rejected_total"); got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d", resp.StatusCode)
	}
	if _, code := post(t, ts.URL, "", ""); code != http.StatusBadRequest {
		t.Fatalf("empty sql = %d", code)
	}
}

// TestUnencodableResultIs400: a SUM that overflows to +Inf has no JSON
// form; the client gets a 400 with an error body, and the session lives on.
func TestUnencodableResultIs400(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	qr, _ := post(t, ts.URL, "", "CREATE TABLE big (x DOUBLE)")
	sid := qr.Session
	if qr, code := post(t, ts.URL, sid, "INSERT INTO big VALUES (1e308), (1e308)"); code != http.StatusOK {
		t.Fatalf("insert = %d %+v", code, qr)
	}
	qr, code := post(t, ts.URL, sid, "SELECT SUM(x) FROM big")
	if code != http.StatusBadRequest || qr.Error == "" || qr.Session != sid {
		t.Fatalf("overflowing SUM = %d %+v, want 400 with an error body", code, qr)
	}
	qr, code = post(t, ts.URL, sid, "SELECT x FROM big")
	if code != http.StatusOK || len(qr.Rows) != 2 || qr.Rows[0][0] != 1e308 {
		t.Fatalf("finite rows after the refusal = %d %+v", code, qr)
	}
}

// TestConcurrentSessions drives many sessions at once; every statement must
// succeed, with the engine's lock manager serializing the conflicts.
func TestConcurrentSessions(t *testing.T) {
	ts, _, db := newTestServer(t, Options{})
	if qr, code := post(t, ts.URL, "", "CREATE TABLE shared (a INT)"); code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, qr)
	}

	const clients = 6
	const iters = 10
	var wg sync.WaitGroup
	fail := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qr, code := post(t, ts.URL, "", fmt.Sprintf("INSERT INTO shared VALUES (%d)", c))
			if code != http.StatusOK {
				fail <- fmt.Sprintf("client %d mint: %d %s", c, code, qr.Error)
				return
			}
			sid := qr.Session
			for i := 0; i < iters; i++ {
				var sql string
				if i%2 == 0 {
					sql = fmt.Sprintf("INSERT INTO shared VALUES (%d)", c*100+i)
				} else {
					sql = "SELECT a FROM shared LIMIT 5"
				}
				if qr, code := post(t, ts.URL, sid, sql); code != http.StatusOK {
					fail <- fmt.Sprintf("client %d iter %d: %d %s", c, i, code, qr.Error)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	res, err := db.Exec("SELECT a FROM shared")
	if err != nil {
		t.Fatal(err)
	}
	want := clients + clients*iters/2
	if len(res.Rows) != want {
		t.Fatalf("table has %d rows, want %d", len(res.Rows), want)
	}
}

func TestIdleSessionsReaped(t *testing.T) {
	ts, srv, _ := newTestServer(t, Options{IdleTimeout: 50 * time.Millisecond})
	qr, code := post(t, ts.URL, "", "CREATE TABLE t (a INT)")
	if code != http.StatusOK {
		t.Fatalf("mint: %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := srv.Sessions(); n != 0 {
		t.Fatalf("%d sessions still live after idle timeout", n)
	}
	if _, code := post(t, ts.URL, qr.Session, "SELECT a FROM t"); code != http.StatusNotFound {
		t.Fatalf("reaped session = %d, want 404", code)
	}
}
